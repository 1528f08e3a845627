#include "src/rpc/envelope.h"

#include "src/common/binary_io.h"

namespace vizq::rpc {

namespace {
constexpr uint32_t kRequestMagic = 0x56515251;   // 'VQRQ'
constexpr uint32_t kResponseMagic = 0x56515253;  // 'VQRS'
}  // namespace

std::string RpcRequest::Serialize() const {
  BinaryWriter w;
  w.U32(kRequestMagic);
  w.U64(request_id);
  w.Str(method);
  w.Str(target);
  w.F64(budget_ms);
  w.Str(payload);
  return w.TakeBytes();
}

StatusOr<RpcRequest> RpcRequest::Deserialize(const std::string& bytes) {
  BinaryReader r(bytes);
  uint32_t magic;
  if (!r.U32(&magic) || magic != kRequestMagic) {
    return DataLoss("rpc: not a request envelope");
  }
  RpcRequest req;
  if (!r.U64(&req.request_id) || !r.Str(&req.method) || !r.Str(&req.target) ||
      !r.F64(&req.budget_ms) || !r.Str(&req.payload) || !r.AtEnd()) {
    return DataLoss("rpc: truncated request envelope");
  }
  return req;
}

Status RpcResponse::ToStatus() const {
  if (code == StatusCode::kOk) return OkStatus();
  return Status(code, message);
}

std::string RpcResponse::Serialize() const {
  BinaryWriter w;
  w.U32(kResponseMagic);
  w.U64(request_id);
  w.U32(static_cast<uint32_t>(code));
  w.Str(message);
  w.F64(remote_ms);
  w.Str(payload);
  return w.TakeBytes();
}

StatusOr<RpcResponse> RpcResponse::Deserialize(const std::string& bytes) {
  BinaryReader r(bytes);
  uint32_t magic;
  if (!r.U32(&magic) || magic != kResponseMagic) {
    return DataLoss("rpc: not a response envelope");
  }
  RpcResponse resp;
  if (!r.U64(&resp.request_id) ||
      !r.Enum<uint32_t>(&resp.code, StatusCode::kDeadlineExceeded) ||
      !r.Str(&resp.message) || !r.F64(&resp.remote_ms) ||
      !r.Str(&resp.payload) || !r.AtEnd()) {
    return DataLoss("rpc: truncated response envelope or bad status code");
  }
  return resp;
}

}  // namespace vizq::rpc
