#include "src/dpu/distributed.h"

#include "src/common/check.h"
#include "src/dpu/services.h"

namespace hyperion::dpu {

namespace {
uint64_t MixKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return key;
}
}  // namespace

size_t KvPartitionOf(uint64_t key, size_t partitions) {
  CHECK_GT(partitions, 0u);
  return static_cast<size_t>(MixKey(key) % partitions);
}

size_t DistributedKvClient::PartitionOf(uint64_t key) const {
  return KvPartitionOf(key, partitions_.size());
}

Result<RpcResponse> DistributedKvClient::CallOwner(uint64_t key, uint16_t opcode,
                                                   Bytes payload) {
  RpcRequest request{ServiceId::kKv, opcode, std::move(payload)};
  ASSIGN_OR_RETURN(RpcResponse response, partitions_[PartitionOf(key)]->Call(request));
  RETURN_IF_ERROR(response.status);
  return response;
}

Status DistributedKvClient::Put(uint64_t key, ByteSpan value) {
  Bytes payload;
  PutU64(payload, key);
  PutU32(payload, static_cast<uint32_t>(value.size()));
  PutBytes(payload, value);
  return CallOwner(key, KvOp::kPut, std::move(payload)).status();
}

Result<Buffer> DistributedKvClient::Get(uint64_t key) {
  Bytes payload;
  PutU64(payload, key);
  ASSIGN_OR_RETURN(RpcResponse response, CallOwner(key, KvOp::kGet, std::move(payload)));
  return std::move(response.payload);
}

Status DistributedKvClient::Delete(uint64_t key) {
  Bytes payload;
  PutU64(payload, key);
  return CallOwner(key, KvOp::kDelete, std::move(payload)).status();
}

void ShardedKvClient::CallOwnerAsync(uint64_t key, uint16_t opcode, Bytes payload,
                                     std::function<void(Result<RpcResponse>)> done) {
  CHECK(!partitions_.empty());
  RpcRequest request{ServiceId::kKv, opcode, std::move(payload)};
  self_->CallAsync(partitions_[PartitionOf(key)], request, std::move(done));
}

void ShardedKvClient::PutAsync(uint64_t key, ByteSpan value, std::function<void(Status)> done) {
  Bytes payload;
  PutU64(payload, key);
  PutU32(payload, static_cast<uint32_t>(value.size()));
  PutBytes(payload, value);
  CallOwnerAsync(key, KvOp::kPut, std::move(payload),
                 [done = std::move(done)](Result<RpcResponse> response) {
                   done(response.ok() ? response->status : response.status());
                 });
}

void ShardedKvClient::GetAsync(uint64_t key, std::function<void(Result<Buffer>)> done) {
  Bytes payload;
  PutU64(payload, key);
  CallOwnerAsync(key, KvOp::kGet, std::move(payload),
                 [done = std::move(done)](Result<RpcResponse> response) {
                   if (!response.ok()) {
                     done(response.status());
                     return;
                   }
                   if (!response->status.ok()) {
                     done(response->status);
                     return;
                   }
                   done(std::move(response->payload));
                 });
}

void ShardedKvClient::DeleteAsync(uint64_t key, std::function<void(Status)> done) {
  Bytes payload;
  PutU64(payload, key);
  CallOwnerAsync(key, KvOp::kDelete, std::move(payload),
                 [done = std::move(done)](Result<RpcResponse> response) {
                   done(response.ok() ? response->status : response.status());
                 });
}

}  // namespace hyperion::dpu
