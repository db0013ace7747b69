#include "tilelink/program.h"

#include <sstream>
#include <string>
#include <utility>

#include "sim/coro_utils.h"
#include "sim/trace.h"

namespace tilelink::tl {

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------
namespace {

// Loop::compute_step of a loop with this body.
int ComputeStep(const std::vector<Stmt>& body) {
  int step = -1;
  for (size_t i = 0; i < body.size(); ++i) {
    if (body[i].loop) return -1;
    const Op& op = *body[i].op;
    if (op.kind != OpKind::kNop && op.kind != OpKind::kLoad &&
        op.kind != OpKind::kMma && op.kind != OpKind::kElementwise) {
      return -1;
    }
    if (!op.cost) continue;
    if (step >= 0) return -1;
    step = static_cast<int>(i);
  }
  return step;
}

}  // namespace

TileProgramBuilder& TileProgramBuilder::Add(Op op) {
  Stmt s;
  s.op = std::move(op);
  program_.stmts.push_back(std::move(s));
  return *this;
}

TileProgramBuilder& TileProgramBuilder::For(
    const std::string& var, std::function<int64_t(const Env&)> trip_count,
    const std::function<void(TileProgramBuilder&)>& build_body) {
  TL_CHECK_MSG(depth_ < kMaxLoopDepth, "loop nesting deeper than "
                                           << kMaxLoopDepth
                                           << " is not supported");
  TileProgramBuilder body_builder(depth_ + 1);
  build_body(body_builder);
  auto loop = std::make_shared<Loop>();
  loop->var = var;
  loop->depth = depth_;
  loop->trip_count = std::move(trip_count);
  loop->body = std::move(body_builder.program_.stmts);
  loop->compute_step = ComputeStep(loop->body);
  Stmt s;
  s.loop = std::move(loop);
  program_.stmts.push_back(std::move(s));
  return *this;
}

TileProgramBuilder& TileProgramBuilder::Scratch(
    std::function<std::shared_ptr<void>(const Env&)> factory) {
  program_.scratch_factory = std::move(factory);
  return *this;
}

BlockProgram TileProgramBuilder::Build() { return std::move(program_); }

// ---------------------------------------------------------------------------
// Verifier (§4.2)
// ---------------------------------------------------------------------------
namespace {

bool IsWait(OpKind k) {
  return k == OpKind::kConsumerWait || k == OpKind::kPeerWait;
}
bool IsNotify(OpKind k) {
  return k == OpKind::kProducerNotify || k == OpKind::kPeerNotify;
}
bool WritesData(OpKind k) {
  return k == OpKind::kStore || k == OpKind::kPushData ||
         k == OpKind::kPullData || k == OpKind::kMma ||
         k == OpKind::kElementwise;
}

// Walks a statement list. `acquired` / `wrote` carry dominance facts from
// enclosing scopes; facts established inside a loop body hold for later
// statements of that body but conservatively do NOT escape the loop (its
// trip count may be zero).
void VerifyStmts(const std::vector<Stmt>& stmts, bool acquired, bool wrote,
                 const std::string& role) {
  bool acq = acquired;
  bool wr = wrote;
  for (const Stmt& s : stmts) {
    if (s.loop) {
      VerifyStmts(s.loop->body, acq, wr, role);
      continue;
    }
    const Op& op = *s.op;
    if (IsWait(op.kind)) {
      acq = true;
      continue;
    }
    if (op.kind == OpKind::kLoad && op.requires_acquire && !acq) {
      throw VerifyError("memory-consistency verification failed in '" + role +
                        "': acquire-load '" + op.label +
                        "' is not dominated by a consumer/peer wait");
    }
    if (IsNotify(op.kind) && !wr) {
      throw VerifyError("memory-consistency verification failed in '" + role +
                        "': notify '" + op.label +
                        "' has no preceding store/push to release");
    }
    if (WritesData(op.kind)) {
      wr = true;
    }
  }
}

// ---------------------------------------------------------------------------
// Unsafe reordering pass (fault injection for §4.2 tests)
// ---------------------------------------------------------------------------

// Reorders acquire-loads ahead of the waits that guard them — the exact
// hazard a pipeliner unaware of primitive data dependencies would create
// (§4.2). Equivalently (and robust to loads living inside inner loops), each
// wait op sinks to the end of its statement list, so every load it guarded
// now executes first.
void UnsafeHoistLoads(std::vector<Stmt>& stmts) {
  for (Stmt& s : stmts) {
    if (s.loop) UnsafeHoistLoads(s.loop->body);
  }
  std::vector<Stmt> reordered;
  std::vector<Stmt> sunk_waits;
  reordered.reserve(stmts.size());
  for (Stmt& s : stmts) {
    if (s.op && IsWait(s.op->kind)) {
      sunk_waits.push_back(std::move(s));
    } else {
      reordered.push_back(std::move(s));
    }
  }
  for (Stmt& w : sunk_waits) reordered.push_back(std::move(w));
  stmts = std::move(reordered);
}

// ---------------------------------------------------------------------------
// Listing codegen (PTX-like, tile granularity)
// ---------------------------------------------------------------------------

const char* Mnemonic(const Op& op) {
  switch (op.kind) {
    case OpKind::kNop:
      return "nop";
    case OpKind::kLoad:
      return op.requires_acquire ? "ld.global.acquire.b128"
                                 : "ld.global.b128";
    case OpKind::kStore:
      return "st.global.b128";
    case OpKind::kMma:
      return "mma.sync.aligned";
    case OpKind::kElementwise:
      return "elementwise";
    case OpKind::kPushData:
      return op.async_dma ? "cp.async.bulk.remote   // tile_push_data (dma)"
                          : "st.global.remote   // tile_push_data";
    case OpKind::kPullData:
      return "ld.global.remote   // tile_pull_data";
    case OpKind::kConsumerWait:
      return "spin.ld.global.acquire   // consumer_tile_wait";
    case OpKind::kProducerNotify:
      return "red.release.global.add   // producer_tile_notify";
    case OpKind::kPeerWait:
      return "spin.ld.global.acquire   // peer_tile_wait";
    case OpKind::kPeerNotify:
      return "red.release.global.add   // peer_tile_notify";
  }
  return "?";
}

void EmitStmts(const std::vector<Stmt>& stmts, int indent,
               std::ostringstream& os) {
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  for (const Stmt& s : stmts) {
    if (s.loop) {
      os << pad << "for " << s.loop->var << ":\n";
      EmitStmts(s.loop->body, indent + 1, os);
      continue;
    }
    os << pad << Mnemonic(*s.op);
    if (!s.op->label.empty()) os << "    ; " << s.op->label;
    os << "\n";
    if (s.op->notify_after) {
      os << pad
         << "red.release.global.add   // peer_tile_notify (on completion)\n";
    }
  }
}

std::string EmitListing(const FusedKernelSpec& spec,
                        const CompilerOptions& options) {
  std::ostringstream os;
  os << "// tilelink kernel: " << spec.name << "\n";
  os << "// pipeline=safe unsafe_reorder=" << (options.unsafe_reorder ? 1 : 0)
     << "\n";
  int base = 0;
  for (const Role& role : spec.roles) {
    os << ".role " << role.name << "  (blocks " << base << ".."
       << base + role.blocks - 1 << ")\n";
    EmitStmts(role.program.stmts, 1, os);
    base += role.blocks;
  }
  return os.str();
}

}  // namespace

// ---------------------------------------------------------------------------
// Compile
// ---------------------------------------------------------------------------

CompiledKernel Compiler::Compile(FusedKernelSpec spec) const {
  TL_CHECK_GT(spec.total_blocks(), 0);
  if (!options_.unsafe_reorder) {
    for (const Role& role : spec.roles) {
      VerifyStmts(role.program.stmts, false, false,
                  spec.name + "/" + role.name);
    }
  }
  if (options_.unsafe_reorder) {
    for (Role& role : spec.roles) {
      UnsafeHoistLoads(role.program.stmts);
    }
  }
  CompiledKernel kernel;
  kernel.listing_ = EmitListing(spec, options_);
  kernel.spec_ = std::make_shared<const FusedKernelSpec>(std::move(spec));
  return kernel;
}

// ---------------------------------------------------------------------------
// Interpreter: executes each block of a compiled program in one coroutine
// ---------------------------------------------------------------------------
namespace {

struct MmaCost {
  const Op* op;
  sim::TimeNs cost;
};

// Shared by every block of one launch on one rank, and by the async DMA
// pushes those blocks issue: holding it keeps the spec (and so every op and
// its label) alive until the last of them finishes.
struct LaunchState {
  std::shared_ptr<const FusedKernelSpec> spec;
  BlockChannel bc;
  sim::CostModel cost;
  // The cost of each kMma op this launch has run, filled on first use: it
  // reads only the CostModel, so it is one value per launch.
  mutable InlineVector<MmaCost, 4> mma_costs;
};

struct ExecCtx {
  rt::World* world;
  std::shared_ptr<const LaunchState> launch;
  // Tracing (null/-1 when the world has no recorder): per-block track on
  // the rank's trace process, spans per costed op.
  sim::TraceRecorder* tr = nullptr;
  int pid = -1;
  int tid = 0;
};

std::string RoleLabel(const FusedKernelSpec& spec, const Role& role) {
  return spec.name + "/" + role.name;
}

// Checker registration honouring DataSpec strided runs: a column strip of a
// row-major tensor audits one run per covered row instead of the flat
// [lo, hi) span (which overlaps the neighbouring strips' bytes and would
// flag false races between disjoint strips).
void CheckReadRuns(rt::World& world, const DataSpec& d, sim::TimeNs t,
                   const std::string& label) {
  if (d.read_buf == nullptr || !world.checker().enabled()) return;
  if (d.read_pitch <= 0) {
    world.checker().CheckRead(d.read_buf, d.read_lo, d.read_hi, t, label);
    return;
  }
  for (int64_t lo = d.read_lo; lo < d.read_hi; lo += d.read_pitch) {
    world.checker().CheckRead(d.read_buf, lo,
                              std::min(lo + d.read_run, d.read_hi), t, label);
  }
}

void RecordWriteRuns(rt::World& world, const DataSpec& d, sim::TimeNs start,
                     sim::TimeNs end, const std::string& label) {
  if (d.write_buf == nullptr || !world.checker().enabled()) return;
  if (d.write_pitch <= 0) {
    world.checker().RecordWrite(d.write_buf, d.write_lo, d.write_hi, start,
                                end, label, d.atomic);
    return;
  }
  for (int64_t lo = d.write_lo; lo < d.write_hi; lo += d.write_pitch) {
    world.checker().RecordWrite(d.write_buf, lo,
                                std::min(lo + d.write_run, d.write_hi), start,
                                end, label, d.atomic);
  }
}

void FireNotify(const ExecCtx& ec, const NotifySpec& spec) {
  const BlockChannel& bc = ec.launch->bc;
  for (const NotifyEntry& e : spec.entries) {
    bc.set(e.space, e.target)->AddFrom(bc.rank, e.channel, e.inc);
  }
}

// The helpers below evaluate an op's spec callbacks outside RunBlock: a
// coroutine keeps every local in its frame, so a spec temporary held there
// would grow every block's frame even though it never lives across a
// suspension.
void Notify(const ExecCtx& ec, const std::function<NotifySpec(const Env&)>& fn,
            const Env& env) {
  FireNotify(ec, fn(env));
}

// The simulated time of costed op `op`: a kMma cost once per launch, any
// other cost on every call.
sim::TimeNs OpCost(const ExecCtx& ec, const Op& op, const Env& env) {
  const LaunchState& launch = *ec.launch;
  if (op.kind != OpKind::kMma) return op.cost(env, launch.cost);
  for (const MmaCost& m : launch.mma_costs) {
    if (m.op == &op) return m.cost;
  }
  const sim::TimeNs cost = op.cost(env, launch.cost);
  launch.mma_costs.push_back(MmaCost{&op, cost});
  return cost;
}

// Async DMA push: runs as its own root coroutine; the issuing block has
// already moved on (its functional payload was captured at issue time, when
// the data was handed to the DMA queue). Release semantics: notify_after
// fires only once the transfer has landed. `label` lives in the spec that
// `ec` keeps alive.
sim::Coro AsyncPush(ExecCtx ec, DataSpec d, NotifySpec after,
                    const std::string& label) {
  rt::World& world = *ec.world;
  co_await world.device(d.src_rank).copy_engines().Acquire();
  sim::ResourceLease lease(world.device(d.src_rank).copy_engines(), 1);
  co_await sim::Delay{world.spec().dma_setup_latency};
  const sim::TimeNs start = world.sim().Now();
  const uint64_t wt =
      d.write_buf != nullptr ? world.checker().OpenWrite(start) : 0;
  co_await world.Transfer(d.src_rank, d.dst_rank,
                          static_cast<uint64_t>(static_cast<double>(d.bytes) /
                                                world.spec().dma_efficiency));
  RecordWriteRuns(world, d, start, world.sim().Now(), label);
  world.checker().CloseWrite(wt);
  if (ec.tr != nullptr) {
    ec.tr->AddSpan(ec.pid, ec.tid, label, start, world.sim().Now(),
                   sim::kCatComm,
                   {sim::TraceArg::Num("bytes", static_cast<double>(d.bytes)),
                    sim::TraceArg::Num("src", d.src_rank),
                    sim::TraceArg::Num("dst", d.dst_rank),
                    sim::TraceArg::Str("dma", "1")});
  }
  FireNotify(ec, after);
}

// Hands a push to a copy engine: the payload value is captured now (it
// enters the DMA queue), and the completion notify fires with release
// semantics when the data lands.
void IssueAsyncPush(const ExecCtx& ec, const Op& op, const Env& env) {
  rt::World& world = *ec.world;
  const DataSpec d = op.data(env);
  NotifySpec after;
  if (op.notify_after) after = op.notify_after(env);
  if (op.math && world.functional()) op.math(env);
  world.sim().Spawn(AsyncPush(ec, d, std::move(after), op.label),
                    "async_push");
}

// The repeated delay a loop runs as, or times == 0 when it must run
// iteration by iteration. A pure-compute loop (Loop::compute_step >= 0)
// whose iterations nothing observes -- the block is untraced, the world
// timing-only and the checker off -- and all cost the same is one
// Delay{cost, trips}: the same events in the same order, one resume.
// Takes a kMma cost from the launch (it never reads Env), evaluates any
// other costed op once per iteration, and leaves the loop variable at 0.
sim::Delay LoopAsRepeatedDelay(const ExecCtx& ec, const Loop& loop,
                               int64_t trips, Env& env) {
  const sim::Delay per_iteration(0, 0);
  if (loop.compute_step < 0 || ec.tr != nullptr || ec.world->functional() ||
      ec.world->checker().enabled()) {
    return per_iteration;
  }
  const Op& op = *loop.body[static_cast<size_t>(loop.compute_step)].op;
  int64_t& iv = env.loop[static_cast<size_t>(loop.depth)];
  const sim::TimeNs first = OpCost(ec, op, env);
  if (op.kind == OpKind::kMma) return sim::Delay(first, trips);
  for (iv = 1; iv < trips; ++iv) {
    if (op.cost(env, ec.launch->cost) != first) {
      iv = 0;
      return per_iteration;
    }
  }
  iv = 0;
  return sim::Delay(first, trips);
}

// One block of a role: runs the whole program in this coroutine frame. An
// explicit cursor stack walks the statement tree — level 0 is the program
// body, level d + 1 the body of the loop at depth d — and every op runs
// inline, so no op or loop iteration allocates a child frame.
sim::Coro RunBlock(ExecCtx ec, Env env, const Role* role) {
  rt::World& world = *ec.world;
  const BlockProgram* program = &role->program;
  const sim::TimeNs block_t0 = world.sim().Now();
  std::shared_ptr<void> scratch;
  if (program->scratch_factory && world.functional()) {
    scratch = program->scratch_factory(env);
    env.scratch = scratch.get();
  }
  co_await sim::Delay{ec.launch->cost.BlockPrologue()};

  struct Cursor {
    const std::vector<Stmt>* stmts;
    size_t pc;
    size_t slot;  // Env::loop index of the enclosing loop (unused at level 0)
    int64_t trips;
    int64_t iter;
  };
  std::array<Cursor, kMaxLoopDepth + 1> stack{};
  int top = 0;
  stack[0] = Cursor{&program->stmts, 0, 0, 0, 0};
  for (;;) {
    Cursor& cur = stack[static_cast<size_t>(top)];
    if (cur.pc == cur.stmts->size()) {
      if (top == 0) break;
      if (++cur.iter < cur.trips) {
        env.loop[cur.slot] = cur.iter;
        cur.pc = 0;
      } else {
        env.loop[cur.slot] = 0;
        --top;
      }
      continue;
    }
    const Stmt& s = (*cur.stmts)[cur.pc++];
    if (s.loop) {
      const size_t slot = static_cast<size_t>(s.loop->depth);
      const int64_t trips = s.loop->trip_count(env);
      env.loop[slot] = 0;
      if (trips <= 0) continue;
      if (sim::Delay repeat = LoopAsRepeatedDelay(ec, *s.loop, trips, env);
          repeat.times > 0) {
        co_await repeat;
        continue;
      }
      TL_CHECK_LT(top, kMaxLoopDepth);
      stack[static_cast<size_t>(++top)] =
          Cursor{&s.loop->body, 0, slot, trips, 0};
      continue;
    }

    const Op& op = *s.op;
    switch (op.kind) {
      case OpKind::kNop:
        continue;
      case OpKind::kConsumerWait:
      case OpKind::kPeerWait: {
        const WaitSpec spec = op.wait(env);
        rt::SignalSet* sig = ec.launch->bc.local(spec.space);
        for (const ChannelWait& w : spec.waits) {
          co_await sig->Wait(w.channel, w.threshold);
        }
        continue;
      }
      case OpKind::kProducerNotify:
      case OpKind::kPeerNotify:
        // Release: all prior ops of this block already completed (the
        // block runs sequentially); remote visibility latency is modeled
        // inside SignalSet::AddFrom.
        Notify(ec, op.notify, env);
        continue;
      case OpKind::kLoad:
        if (op.data && world.checker().enabled()) {
          CheckReadRuns(world, op.data(env), world.sim().Now(), op.label);
        }
        break;
      case OpKind::kStore:
        if (op.math && world.functional()) op.math(env);
        if (op.data && world.checker().enabled()) {
          RecordWriteRuns(world, op.data(env), world.sim().Now(),
                          world.sim().Now(), op.label);
        }
        break;
      case OpKind::kMma:
      case OpKind::kElementwise:
        break;
      case OpKind::kPushData:
      case OpKind::kPullData: {
        TL_CHECK_MSG(static_cast<bool>(op.data),
                     "push/pull op '" << op.label << "' lacks a DataSpec");
        if (op.async_dma) {
          IssueAsyncPush(ec, op, env);
          continue;
        }
        const DataSpec d = op.data(env);
        const sim::TimeNs start = world.sim().Now();
        CheckReadRuns(world, d, start, op.label);
        const uint64_t wt =
            d.write_buf != nullptr ? world.checker().OpenWrite(start) : 0;
        co_await world.Transfer(d.src_rank, d.dst_rank, d.bytes);
        if (op.math && world.functional()) op.math(env);
        RecordWriteRuns(world, d, start, world.sim().Now(), op.label);
        world.checker().CloseWrite(wt);
        if (ec.tr != nullptr) {
          ec.tr->AddSpan(
              ec.pid, ec.tid, op.label, start, world.sim().Now(),
              sim::kCatComm,
              {sim::TraceArg::Num("bytes", static_cast<double>(d.bytes)),
               sim::TraceArg::Num("src", d.src_rank),
               sim::TraceArg::Num("dst", d.dst_rank)});
        }
        if (op.notify_after) Notify(ec, op.notify_after, env);
        continue;
      }
    }

    // Tile ops on the SM (load, store, MMA, elementwise): the costed step,
    // then the functional payload (a store's payload already ran).
    if (op.cost) {
      const sim::TimeNs t0 = world.sim().Now();
      co_await sim::Delay{OpCost(ec, op, env)};
      if (ec.tr != nullptr) {
        ec.tr->AddSpan(ec.pid, ec.tid, op.label, t0, world.sim().Now(),
                       sim::kCatCompute);
      }
    }
    if (op.kind != OpKind::kStore && op.math && world.functional()) {
      op.math(env);
    }
  }

  co_await sim::Delay{ec.launch->cost.BlockEpilogue()};
  if (ec.tr != nullptr) {
    // Structural span: SM-resident time of this role block (kCatTask so the
    // profiler's critical path walks the leaf op spans instead).
    ec.tr->AddSpan(ec.pid, ec.tid, RoleLabel(*ec.launch->spec, *role),
                   block_t0, world.sim().Now(), sim::kCatTask,
                   {sim::TraceArg::Num("block", env.block_id)});
  }
}

}  // namespace

std::shared_ptr<rt::KernelState> CompiledKernel::Launch(
    rt::RankCtx& ctx, rt::Stream& stream, const BlockChannel& bc) const {
  auto launch = std::make_shared<const LaunchState>(
      LaunchState{spec_, bc, sim::CostModel(stream.device()->spec()), {}});
  rt::World* world = ctx.world;
  auto body = [launch, world](rt::BlockCtx bctx) -> sim::Coro {
    ExecCtx ec{world, launch};
    int base = 0;
    const Role* role = nullptr;
    int role_block = 0;
    for (const Role& r : launch->spec->roles) {
      if (bctx.block_id < base + r.blocks) {
        role = &r;
        role_block = bctx.block_id - base;
        break;
      }
      base += r.blocks;
    }
    TL_CHECK(role != nullptr);
    if (sim::TraceRecorder* tr = world->trace()) {
      ec.tr = tr;
      ec.pid = world->trace_pid(launch->bc.rank);
      ec.tid = tr->Track(ec.pid, RoleLabel(*launch->spec, *role) + ".b" +
                                     std::to_string(role_block));
    }
    Env env;
    env.rank = launch->bc.rank;
    env.grid = role->blocks;
    env.block_id = role_block;
    return RunBlock(std::move(ec), env, role);
  };
  return stream.LaunchKernel(spec_->total_blocks(), std::move(body),
                             spec_->name);
}

}  // namespace tilelink::tl
