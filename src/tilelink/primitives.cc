#include "tilelink/primitives.h"

namespace tilelink::tl {
namespace ops {

Op ConsumerTileWait(std::string label,
                    std::function<WaitSpec(const Env&)> wait) {
  Op op;
  op.kind = OpKind::kConsumerWait;
  op.label = std::move(label);
  op.wait = std::move(wait);
  return op;
}

Op ProducerTileNotify(std::string label,
                      std::function<NotifySpec(const Env&)> notify) {
  Op op;
  op.kind = OpKind::kProducerNotify;
  op.label = std::move(label);
  op.notify = std::move(notify);
  return op;
}

Op PeerTileWait(std::string label, std::function<WaitSpec(const Env&)> wait) {
  Op op;
  op.kind = OpKind::kPeerWait;
  op.label = std::move(label);
  op.wait = std::move(wait);
  return op;
}

Op PeerTileNotify(std::string label,
                  std::function<NotifySpec(const Env&)> notify) {
  Op op;
  op.kind = OpKind::kPeerNotify;
  op.label = std::move(label);
  op.notify = std::move(notify);
  return op;
}

Op TilePushData(std::string label, std::function<DataSpec(const Env&)> data,
                std::function<NotifySpec(const Env&)> notify_after,
                bool async_dma, std::function<void(const Env&)> math) {
  Op op;
  op.kind = OpKind::kPushData;
  op.label = std::move(label);
  op.data = std::move(data);
  op.notify_after = std::move(notify_after);
  op.async_dma = async_dma;
  op.math = std::move(math);
  return op;
}

Op TilePullData(std::string label, std::function<DataSpec(const Env&)> data,
                std::function<void(const Env&)> math) {
  Op op;
  op.kind = OpKind::kPullData;
  op.label = std::move(label);
  op.data = std::move(data);
  op.math = std::move(math);
  return op;
}

Op Load(std::string label, bool acquire,
        std::function<DataSpec(const Env&)> data) {
  Op op;
  op.kind = OpKind::kLoad;
  op.label = std::move(label);
  op.requires_acquire = acquire;
  op.data = std::move(data);
  return op;
}

Op Store(std::string label, std::function<DataSpec(const Env&)> data,
         std::function<void(const Env&)> math) {
  Op op;
  op.kind = OpKind::kStore;
  op.label = std::move(label);
  op.data = std::move(data);
  op.math = std::move(math);
  return op;
}

Op Mma(std::string label,
       std::function<sim::TimeNs(const Env&, const sim::CostModel&)> cost,
       std::function<void(const Env&)> math) {
  Op op;
  op.kind = OpKind::kMma;
  op.label = std::move(label);
  op.cost = std::move(cost);
  op.math = std::move(math);
  return op;
}

Op Elementwise(std::string label,
               std::function<sim::TimeNs(const Env&, const sim::CostModel&)> cost,
               std::function<void(const Env&)> math) {
  Op op;
  op.kind = OpKind::kElementwise;
  op.label = std::move(label);
  op.cost = std::move(cost);
  op.math = std::move(math);
  return op;
}

}  // namespace ops

sim::Coro RankCopyData(rt::RankCtx& ctx, Tensor src, Tensor dst) {
  co_await comm::CopyTensorP2P(*ctx.world, *ctx.dev, src, dst);
}

void RankNotify(rt::RankCtx& ctx, const BlockChannel& bc, int target_rank,
                int channel, uint64_t inc) {
  bc.set(SignalSpace::kHost, target_rank)
      ->AddFrom(ctx.rank, channel, inc);
}

sim::Flag::Awaiter RankWait(const BlockChannel& bc, int channel,
                            uint64_t threshold) {
  return bc.local(SignalSpace::kHost)->Wait(channel, threshold);
}

NotifySpec NotifyOne(SignalSpace space, int target, int channel,
                     uint64_t inc) {
  NotifySpec spec;
  spec.entries.push_back(NotifyEntry{space, target, channel, inc});
  return spec;
}

}  // namespace tilelink::tl
