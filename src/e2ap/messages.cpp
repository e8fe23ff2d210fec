#include "e2ap/messages.hpp"

namespace flexric::e2ap {

const char* msg_type_name(MsgType t) noexcept {
  switch (t) {
    case MsgType::setup_request: return "E2SetupRequest";
    case MsgType::setup_response: return "E2SetupResponse";
    case MsgType::setup_failure: return "E2SetupFailure";
    case MsgType::reset_request: return "ResetRequest";
    case MsgType::reset_response: return "ResetResponse";
    case MsgType::error_indication: return "ErrorIndication";
    case MsgType::service_update: return "RICserviceUpdate";
    case MsgType::service_update_ack: return "RICserviceUpdateAcknowledge";
    case MsgType::service_update_failure: return "RICserviceUpdateFailure";
    case MsgType::node_config_update: return "E2nodeConfigurationUpdate";
    case MsgType::node_config_update_ack:
      return "E2nodeConfigurationUpdateAcknowledge";
    case MsgType::subscription_request: return "RICsubscriptionRequest";
    case MsgType::subscription_response: return "RICsubscriptionResponse";
    case MsgType::subscription_failure: return "RICsubscriptionFailure";
    case MsgType::subscription_delete_request:
      return "RICsubscriptionDeleteRequest";
    case MsgType::subscription_delete_response:
      return "RICsubscriptionDeleteResponse";
    case MsgType::subscription_delete_failure:
      return "RICsubscriptionDeleteFailure";
    case MsgType::indication: return "RICindication";
    case MsgType::control_request: return "RICcontrolRequest";
    case MsgType::control_ack: return "RICcontrolAcknowledge";
    case MsgType::control_failure: return "RICcontrolFailure";
  }
  return "?";
}

}  // namespace flexric::e2ap
