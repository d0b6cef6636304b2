#ifndef COCONUT_DIST_SERVICE_ENDPOINT_H_
#define COCONUT_DIST_SERVICE_ENDPOINT_H_

#include <string>

#include "common/status.h"
#include "palm/api.h"

namespace coconut {
namespace palm {
namespace dist {

/// A plain forwarder to an api::Service, which is itself a complete
/// HttpDispatcher (binary ingest frames included): shard servers pass the
/// Service to HttpServer::Start directly. Kept only so the palmbench
/// harness, which still constructs one per shard, keeps compiling.
class ServiceEndpoint : public HttpDispatcher {
 public:
  explicit ServiceEndpoint(api::Service* service) : service_(service) {}

  Result<std::string> Dispatch(const HttpRequestInfo& request) override {
    return service_->Dispatch(request);
  }

 private:
  api::Service* service_;
};

}  // namespace dist
}  // namespace palm
}  // namespace coconut

#endif  // COCONUT_DIST_SERVICE_ENDPOINT_H_
