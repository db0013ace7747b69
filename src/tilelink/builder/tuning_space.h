// TuningSpace: enumeration of the §3.1 decoupled design space.
//
// One TuneCandidate fixes every knob the paper decouples per role —
// compute tile size, communication tile size, communication resource
// binding (SM pull / SM push / DMA), comm SM count, synchronization
// granularity (channels per rank), compute tile order, and the
// kernel-family-specific knobs (flash block sizes, MoE channel/reduce
// granularities). A TuningSpace is a per-axis value list; Enumerate() takes
// the cartesian product over the axes that are set and inherits the rest
// from a base candidate, so kernels only pay for the knobs they expose.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compute/gemm.h"
#include "tilelink/builder/role_plan.h"
#include "tilelink/kernels/kernel_common.h"

namespace tilelink::tl {

struct TuneCandidate {
  compute::GemmTiling gemm{128, 256, 64};
  int comm_tile_m = 128;       // comm role tile rows (AG tile / RS chunk)
  int comm_sms = 20;           // SM-resource variants only
  CommResource comm = CommResource::kDma;
  TileOrder order = TileOrder::kOwnerFirst;
  // Synchronization granularity: barrier channels per rank (0 -> one channel
  // per comm tile, the finest granularity the counting protocol supports).
  int channels_per_rank = 0;
  // Attention kernels (ag_attention / flash core).
  int block_q = 128;
  int block_kv = 128;
  // MoE part-2 kernel (moe_rs).
  int sorted_channel_rows = 512;  // pc1 granularity over sorted slots
  int reduce_block_tokens = 64;   // topk-reduce chunk
  int reduce_sms = 16;
  // Multi-node collectives (tilelink/multinode): tiles per NIC message and
  // the number of NIC messages kept in flight per peer (staging depth,
  // clamped by the NIC channel budget).
  int nic_chunk_tiles = 4;
  int staging_depth = 2;

  std::string Describe() const;

  friend bool operator==(const TuneCandidate&, const TuneCandidate&) = default;
};

// Printable names shared with the tuned-config cache serialization.
const char* CommResourceName(CommResource r);
bool ParseCommResource(const std::string& name, CommResource* out);
bool ParseTileOrder(const std::string& name, TileOrder* out);

class TuningSpace {
 public:
  // Axis setters; an unset axis keeps the base candidate's value.
  TuningSpace& GemmTiles(std::vector<std::pair<int, int>> bm_bn);
  TuningSpace& CommTileM(std::vector<int> values);
  TuningSpace& CommSms(std::vector<int> values);
  TuningSpace& Resources(std::vector<CommResource> values);
  TuningSpace& Orders(std::vector<TileOrder> values);
  TuningSpace& ChannelsPerRank(std::vector<int> values);
  TuningSpace& AttnBlocks(std::vector<std::pair<int, int>> q_kv);
  TuningSpace& SortedChannelRows(std::vector<int> values);
  TuningSpace& ReduceBlockTokens(std::vector<int> values);
  TuningSpace& ReduceSms(std::vector<int> values);
  TuningSpace& NicChunkTiles(std::vector<int> values);
  TuningSpace& StagingDepth(std::vector<int> values);

  // Cartesian product. DMA candidates ignore comm_sms, so that axis is
  // collapsed to the base value for them (no duplicate evaluations).
  std::vector<TuneCandidate> Enumerate(const TuneCandidate& base) const;

  // The default search space for the paper's MLP kernels: comm tiles from
  // 64 to 1024 rows, 8-32 comm SMs, all three resource bindings, both ring
  // tile orders, and coarse/fine synchronization granularity.
  static TuningSpace Mlp();

  // The MLP space for serving-path shapes: same axes as Mlp() with the
  // comm-tile range shifted down (16-256 rows). Continuous-batching steps
  // pad ragged decode batches to a few hundred rows, where a 32-row
  // per-rank shard makes every >=64-row comm tile infeasible; training-
  // scale shapes keep using Mlp() (the estimator picks by per-rank rows).
  static TuningSpace ServingMlp();

  // AG-KV + flash attention: flash block sizes (comm is always DMA-driven
  // host copies, so no resource/SM axes).
  static TuningSpace Attention();

  // MoE part 1 (AG + Gather + GroupGEMM): comm tile rows, resource binding,
  // comm SM count, synchronization granularity.
  static TuningSpace MoePart1();

  // MoE part 2 (GroupGEMM + Scatter + TopkReduce + RS): sorted-slot channel
  // granularity, reduce chunking/SMs, RS chunk rows, SM-push vs DMA-push.
  static TuningSpace MoePart2();

  // Multi-node collectives (hierarchical AG/RS, DP gradient sync): NIC
  // chunk size in tiles and per-peer staging depth.
  static TuningSpace MultiNode();

  // GEMM + ReduceScatter across nodes (kernels/gemm_rs with its rail): the
  // joint space coupling the GEMM tile axes with the NIC rail knobs.
  static TuningSpace GemmHierRs();

  // Fused hierarchical AllGather + GEMM (kernels/ag_gemm_hier): AG chunk
  // rows join the GEMM tile axes and the NIC rail knobs.
  static TuningSpace AgGemmHier();

 private:
  std::vector<std::pair<int, int>> gemm_tiles_;
  std::vector<int> comm_tile_m_;
  std::vector<int> comm_sms_;
  std::vector<CommResource> resources_;
  std::vector<TileOrder> orders_;
  std::vector<int> channels_per_rank_;
  std::vector<std::pair<int, int>> attn_blocks_;
  std::vector<int> sorted_channel_rows_;
  std::vector<int> reduce_block_tokens_;
  std::vector<int> reduce_sms_;
  std::vector<int> nic_chunk_tiles_;
  std::vector<int> staging_depth_;
};

}  // namespace tilelink::tl
