// TileLink frontend IR and backend compiler.
//
// Frontend (paper §3): a FusedKernelSpec holds one BlockProgram per *role*
// (e.g. a communication role and a computation role, or the three-stage
// GroupGEMM -> TopkReduce -> ReduceScatter chain of Figure 9) that share one
// launched kernel. Each program is a tree of tile-level ops (loads, stores,
// MMA steps, data push/pull) and signal primitives (consumer_tile_wait,
// producer_tile_notify, peer_tile_wait/notify) built with TileProgramBuilder.
// Roles carry *independent* tile sizes, tile orders and resource bindings —
// the decoupled design space of §3.1.
//
// Backend (paper §4): Compiler::Compile runs
//   1. the memory-consistency verifier (§4.2): every acquire-load must be
//      dominated by a wait, every notify must be preceded by a store/push
//      it can release; programs that violate this are rejected;
//   2. the reordering pass, which keeps primitive<->load/store data
//      dependencies pinned (or, in deliberately-unsafe mode, hoists
//      acquire-loads above waits to demonstrate the §4.2 failure mode);
//   3. codegen: a PTX-like tile-level listing (ld.global.acquire /
//      red.release placement is asserted by tests) plus an executable
//      interpretation of each block: one simulator coroutine frame per
//      block walks the statement tree with an explicit loop-cursor stack
//      and runs every op inline, awaiting delays, signal waits and
//      transfers in that frame. Checker-only DataSpecs (those of loads and
//      stores) are evaluated only while the consistency checker is on.
//      Wait and notify specs are plain values with inline storage (a notify
//      entry raises one barrier word on one rank), so executing a
//      notify or a wait allocates nothing unless an op names more words
//      than fit inline.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/inline_vector.h"
#include "runtime/stream.h"
#include "runtime/world.h"
#include "sim/cost_model.h"
#include "tilelink/block_channel.h"
#include "tilelink/kernels/kernel_common.h"
#include "tilelink/mapping.h"

namespace tilelink::tl {

// ---------------------------------------------------------------------------
// IR
// ---------------------------------------------------------------------------

enum class OpKind {
  kNop,
  kLoad,           // tile load (optionally acquire-ordered)
  kStore,          // tile store to local memory
  kMma,            // tensor-core tile step (cost + math)
  kElementwise,    // memory-bound tile op (cost + math)
  kPushData,       // tile_push_data: remote store (SM-driven or async DMA)
  kPullData,       // tile_pull_data: SM-driven remote load
  kConsumerWait,   // consumer_tile_wait
  kProducerNotify, // producer_tile_notify
  kPeerWait,       // peer_tile_wait
  kPeerNotify,     // peer_tile_notify
};

// Deepest loop nesting a block program may use: Env::loop has one slot per
// depth, TileProgramBuilder::For rejects a deeper level, and the
// interpreter's cursor stack holds kMaxLoopDepth + 1 levels (the program
// body plus one per loop).
inline constexpr int kMaxLoopDepth = 4;

// Loop-variable environment available to every op callback.
struct Env {
  int rank = 0;
  int block_id = 0;  // id within the role
  int grid = 0;      // number of blocks in the role
  std::array<int64_t, kMaxLoopDepth> loop = {};
  void* scratch = nullptr;  // per-block state from scratch_factory

  int64_t iv(int depth) const { return loop[static_cast<size_t>(depth)]; }
};

// Wait on local barrier words: every (channel, threshold) must be reached.
struct WaitSpec {
  SignalSpace space = SignalSpace::kProducerConsumer;
  WaitList waits;
};

// Notify barrier word `channel` (+inc) on rank `target`. A notify op may
// raise several words (entries), each on one rank.
struct NotifyEntry {
  SignalSpace space = SignalSpace::kProducerConsumer;
  int target = 0;
  int channel = 0;
  uint64_t inc = 1;
};
struct NotifySpec {
  InlineVector<NotifyEntry, 4> entries;
};

// Data movement / access description for loads, stores, pushes and pulls.
// Buffers may be null in timing-only paths; ranges feed the consistency
// checker.
struct DataSpec {
  int src_rank = -1;
  int dst_rank = -1;
  uint64_t bytes = 0;
  rt::Buffer* read_buf = nullptr;
  int64_t read_lo = 0, read_hi = 0;
  rt::Buffer* write_buf = nullptr;
  int64_t write_lo = 0, write_hi = 0;
  // Strided views: a column strip of a row-major tensor occupies one run of
  // `*_run` elements every `*_pitch` elements — its flat [lo, hi) covers
  // bytes of the neighbouring strips, so auditing the whole span would
  // report races between transfers of disjoint strips. When a pitch is > 0
  // the checker registers the per-row runs instead of the flat range.
  int64_t read_pitch = 0, read_run = 0;
  int64_t write_pitch = 0, write_run = 0;
};

struct Op {
  OpKind kind = OpKind::kNop;
  std::string label;
  // True for loads of producer-written tiles: the verifier requires a
  // dominating wait, and lowering emits ld.global.acquire.
  bool requires_acquire = false;
  // kPushData only: when true the transfer is handed to a DMA engine and
  // the block continues immediately (hybrid resource mapping, §3.1); the
  // notify_after fires with release semantics when the transfer lands.
  bool async_dma = false;

  std::function<WaitSpec(const Env&)> wait;      // wait ops
  std::function<NotifySpec(const Env&)> notify;  // notify ops
  std::function<NotifySpec(const Env&)> notify_after;  // push completion
  // load/store/push/pull. Must be a pure function of Env (no writes to
  // scratch or captured state): the interpreter skips it on loads and
  // stores while the consistency checker is off, since the checker is its
  // only reader there. Push/pull ops always evaluate it for bytes and
  // src_rank/dst_rank.
  std::function<DataSpec(const Env&)> data;
  std::function<sim::TimeNs(const Env&, const sim::CostModel&)> cost;
  std::function<void(const Env&)> math;          // functional payload
};

struct Stmt;

struct Loop {
  std::string var;
  int depth = 0;  // index into Env::loop
  std::function<int64_t(const Env&)> trip_count;
  std::vector<Stmt> body;
};

struct Stmt {
  std::optional<Op> op;
  std::shared_ptr<Loop> loop;  // shared: copies of a program share bodies
};

// One role (communication or computation part) of a fused kernel.
struct BlockProgram {
  std::vector<Stmt> stmts;
  // Creates per-block mutable state (e.g. accumulators); may be null.
  std::function<std::shared_ptr<void>(const Env&)> scratch_factory;
};

// Builder with lexical loop scoping.
class TileProgramBuilder {
 public:
  TileProgramBuilder() : depth_(0) {}

  TileProgramBuilder& Add(Op op);
  // For(var, trips, [&](TileProgramBuilder& body) { ... });
  TileProgramBuilder& For(
      const std::string& var, std::function<int64_t(const Env&)> trip_count,
      const std::function<void(TileProgramBuilder&)>& build_body);
  TileProgramBuilder& Scratch(
      std::function<std::shared_ptr<void>(const Env&)> factory);

  BlockProgram Build();

 private:
  explicit TileProgramBuilder(int depth) : depth_(depth) {}

  int depth_;
  BlockProgram program_;
};

// One role of a fused kernel: `blocks` thread blocks running `program`.
// Communication roles additionally declare which fabric they occupy and how
// many channels RolePlan granted them on it (0 for compute roles).
struct Role {
  std::string name;
  int blocks = 0;
  BlockProgram program;
  FabricBinding fabric = FabricBinding::kNvlink;
  int fabric_channels = 0;
};

// A fused kernel: roles occupy consecutive block-id ranges in order, so
// role 0 (typically communication) grabs its SMs first — exactly the
// `if block_id < N` pattern of the paper's Figures 4-5.
struct FusedKernelSpec {
  std::string name = "tilelink_kernel";
  std::vector<Role> roles;

  int total_blocks() const {
    int n = 0;
    for (const Role& r : roles) n += r.blocks;
    return n;
  }
};

// ---------------------------------------------------------------------------
// Compiler
// ---------------------------------------------------------------------------

enum class PipelineMode {
  kNone,  // no software pipelining
  kSafe,  // pipelined, primitive data deps pinned (§4.2)
};

struct CompilerOptions {
  PipelineMode pipeline = PipelineMode::kSafe;
  // Fault injection: hoist acquire-loads above their waits (reproduces the
  // reordering hazard of §4.2; the consistency checker must flag it).
  bool unsafe_reorder = false;
  // When false, the verifier is skipped (used by the unsafe mode tests).
  bool verify = true;
};

class CompiledKernel;

class Compiler {
 public:
  explicit Compiler(CompilerOptions options = {}) : options_(options) {}

  // Verifies, transforms and lowers the spec. Throws VerifyError on
  // verification failure.
  CompiledKernel Compile(FusedKernelSpec spec) const;

 private:
  CompilerOptions options_;
};

class CompiledKernel {
 public:
  const std::string& listing() const { return listing_; }
  const FusedKernelSpec& spec() const { return *spec_; }

  // Launches the fused kernel on `stream`; `bc` is this rank's BlockChannel.
  std::shared_ptr<rt::KernelState> Launch(rt::RankCtx& ctx,
                                          rt::Stream& stream,
                                          const BlockChannel& bc) const;

 private:
  friend class Compiler;
  // Immutable once compiled; every launch's block coroutines share it.
  std::shared_ptr<const FusedKernelSpec> spec_;
  std::string listing_;
  CompilerOptions options_;
};

// Thrown when the memory-consistency verifier rejects a program.
class VerifyError : public tilelink::Error {
 public:
  explicit VerifyError(const std::string& what) : Error(what) {}
};

}  // namespace tilelink::tl
