// RPC envelopes: the wire format of the in-process cluster boundary.
//
// Even though caller and callee share an address space, every call is
// genuinely serialized to bytes and parsed back on the far side (through
// BinaryWriter and BinaryReader, src/common/binary_io.h, the codec of
// every binary format). That buys three things a pointer-passing
// shortcut would not:
//   * the modeled network cost (rpc::NetworkCostModel) charges real
//     payload sizes, so "chatty" protocols show up in benches;
//   * nothing non-serializable can leak across the node boundary by
//     accident — exactly the discipline a real multi-process split
//     would enforce;
//   * a corrupt/truncated envelope is a typed kDataLoss, which the
//     fuzzer's cluster lane can exercise.
//
// Envelope layout (all integers little-endian, strings u32-length
// prefixed):
//   request:  magic 'VQRQ' | request_id u64 | method | target |
//             budget_ms f64 | payload
//   response: magic 'VQRS' | request_id u64 | code u32 | message |
//             remote_ms f64 | payload
// `payload` is method-defined (the cluster layer nests its own
// BinaryWriter block inside it).

#ifndef VIZQUERY_RPC_ENVELOPE_H_
#define VIZQUERY_RPC_ENVELOPE_H_

#include <cstdint>
#include <string>

#include "src/common/status.h"

namespace vizq::rpc {

struct RpcRequest {
  uint64_t request_id = 0;
  std::string method;    // e.g. "execute_batch"
  std::string target;    // node id the caller believes owns the work
  double budget_ms = 0;  // per-call deadline budget; <= 0 = caller's
  std::string payload;

  std::string Serialize() const;
  static StatusOr<RpcRequest> Deserialize(const std::string& bytes);
};

struct RpcResponse {
  uint64_t request_id = 0;
  StatusCode code = StatusCode::kOk;
  std::string message;   // error detail when code != kOk
  double remote_ms = 0;  // handler wall time on the remote node
  std::string payload;

  // OK -> OkStatus; otherwise (code, message) as a Status.
  Status ToStatus() const;

  std::string Serialize() const;
  static StatusOr<RpcResponse> Deserialize(const std::string& bytes);
};

}  // namespace vizq::rpc

#endif  // VIZQUERY_RPC_ENVELOPE_H_
