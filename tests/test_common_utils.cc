// Tests for common utilities, tensor views, and the trace recorder.
#include <gtest/gtest.h>

#include <vector>

#include "common/inline_vector.h"
#include "common/math_utils.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "runtime/world.h"
#include "sim/trace.h"
#include "tensor/tensor_ops.h"

namespace tilelink {
namespace {

TEST(MathUtils, CeilDivAndRoundUp) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(int64_t{1}, int64_t{128}), 1);
  EXPECT_EQ(RoundUp(10, 4), 12);
  EXPECT_EQ(RoundUp(8, 4), 8);
  EXPECT_EQ(Pow2RoundUp(100), 128);
  EXPECT_EQ(Pow2RoundUp(128), 128);
}

struct Pair {
  int a = 0;
  uint64_t b = 0;
  friend bool operator==(const Pair&, const Pair&) = default;
};

std::vector<Pair> Values(const InlineVector<Pair, 3>& v) {
  return std::vector<Pair>(v.begin(), v.end());
}

std::vector<Pair> Expected(int n, int base) {
  std::vector<Pair> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Pair{base + i, static_cast<uint64_t>(base + i) * 7});
  }
  return out;
}

InlineVector<Pair, 3> Filled(int n, int base) {
  InlineVector<Pair, 3> v;
  for (int i = 0; i < n; ++i) {
    v.push_back(Pair{base + i, static_cast<uint64_t>(base + i) * 7});
  }
  return v;
}

// Past the inline capacity the elements spill to the heap: order and values
// are kept, nothing is truncated, and copies, moves and assignments between
// inline and spilled vectors carry every element.
TEST(InlineVector, KeepsOrderAndValuesPastInlineCapacity) {
  for (int n : {0, 1, 3, 4, 9, 40}) {
    InlineVector<Pair, 3> v = Filled(n, 100);
    ASSERT_EQ(v.size(), static_cast<size_t>(n));
    EXPECT_EQ(v.spilled(), n > 3);
    EXPECT_EQ(Values(v), Expected(n, 100));
    if (n > 0) {
      EXPECT_EQ(v.front(), (Pair{100, 700}));
      EXPECT_EQ(v.back(), (Pair{99 + n, static_cast<uint64_t>(99 + n) * 7}));
    }

    const InlineVector<Pair, 3> copy(v);
    EXPECT_EQ(Values(copy), Expected(n, 100));
    InlineVector<Pair, 3> moved(std::move(v));
    EXPECT_EQ(Values(moved), Expected(n, 100));

    for (int m : {0, 2, 5, 17}) {
      InlineVector<Pair, 3> assigned = Filled(m, 500);
      assigned = copy;
      EXPECT_EQ(Values(assigned), Expected(n, 100)) << n << " <- " << m;
      InlineVector<Pair, 3> move_assigned = Filled(m, 500);
      move_assigned = Filled(n, 100);
      EXPECT_EQ(Values(move_assigned), Expected(n, 100)) << n << " <- " << m;
      // The source keeps its own elements after being copied from.
      InlineVector<Pair, 3> source = Filled(m, 500);
      InlineVector<Pair, 3> target = Filled(n, 100);
      target = source;
      EXPECT_EQ(Values(source), Expected(m, 500));
      EXPECT_EQ(Values(target), Expected(m, 500));
    }
  }
  InlineVector<Pair, 3> self = Filled(6, 1);
  const InlineVector<Pair, 3>& alias = self;
  self = alias;
  EXPECT_EQ(Values(self), Expected(6, 1));
  // push_back of an element of the vector itself, across a regrow.
  InlineVector<Pair, 3> grow = Filled(3, 1);
  grow.push_back(grow[0]);
  EXPECT_EQ(grow[3], (Pair{1, 7}));
  EXPECT_EQ(grow, (InlineVector<Pair, 3>{{1, 7}, {2, 14}, {3, 21}, {1, 7}}));
  std::vector<Pair> source = Expected(11, 3);
  grow.assign(source.begin(), source.end());
  EXPECT_EQ(Values(grow), source);
  grow.clear();
  EXPECT_TRUE(grow.empty());
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, UniformIntWithinBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, FloatInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const float f = rng.NextFloat();
    EXPECT_GE(f, 0.0f);
    EXPECT_LT(f, 1.0f);
  }
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(3);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
  rng.Shuffle(v);
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(StringUtils, Formatting) {
  EXPECT_EQ(StrFormat("x=%d y=%.1f", 3, 2.5), "x=3 y=2.5");
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(HumanTimeNs(500), "500 ns");
  EXPECT_EQ(HumanBytes(512), "512 B");
  EXPECT_NE(HumanTimeNs(1500000).find("ms"), std::string::npos);
  EXPECT_NE(HumanBytes(64ull << 20).find("MiB"), std::string::npos);
}

TEST(TensorViews, SliceSelectFlattenRoundTrip) {
  rt::World world(sim::MachineSpec::Test(1), rt::ExecMode::kFunctional);
  Tensor t = Tensor::Alloc(world.device(0), "t", {4, 6, 8}, DType::kBF16);
  FillIota(t);
  // Select middle dim then slice.
  Tensor sel = t.Select(1, 2);  // [4, 8]
  EXPECT_EQ(sel.ndim(), 2);
  EXPECT_EQ(sel.at({1, 3}), t.at({1, 2, 3}));
  Tensor sl = t.Slice(0, 1, 2);  // [2, 6, 8]
  EXPECT_EQ(sl.at({0, 0, 0}), t.at({1, 0, 0}));
  EXPECT_TRUE(t.contiguous());
  EXPECT_FALSE(sel.contiguous() && sel.numel() != t.numel());
  Tensor flat = t.Flatten();
  EXPECT_EQ(flat.ndim(), 1);
  EXPECT_EQ(flat.numel(), 4 * 6 * 8);
}

TEST(TensorViews, BufferRangeCoversView) {
  rt::World world(sim::MachineSpec::Test(1), rt::ExecMode::kFunctional);
  Tensor t = Tensor::Alloc(world.device(0), "t", {10, 10}, DType::kBF16);
  Tensor view = t.Slice(0, 3, 4).Slice(1, 2, 5);
  int64_t lo = 0, hi = 0;
  view.BufferRange(&lo, &hi);
  EXPECT_EQ(lo, view.OffsetOf({0, 0}));
  EXPECT_EQ(hi, view.OffsetOf({3, 4}) + 1);
}

TEST(TensorViews, LogicalBytesUseDtype) {
  rt::World world(sim::MachineSpec::Test(1), rt::ExecMode::kFunctional);
  Tensor bf16 = Tensor::Alloc(world.device(0), "a", {8, 8}, DType::kBF16);
  Tensor fp32 = Tensor::Alloc(world.device(0), "b", {8, 8}, DType::kFP32);
  EXPECT_EQ(bf16.logical_bytes(), 128u);
  EXPECT_EQ(fp32.logical_bytes(), 256u);
}

TEST(TensorOps, SumAndMaxAbsDiff) {
  rt::World world(sim::MachineSpec::Test(1), rt::ExecMode::kFunctional);
  Tensor a = Tensor::Alloc(world.device(0), "a", {3, 3}, DType::kFP32);
  Tensor b = Tensor::Alloc(world.device(0), "b", {3, 3}, DType::kFP32);
  FillConstant(a, 2.0f);
  FillConstant(b, 2.0f);
  b.at({1, 1}) = 5.0f;
  EXPECT_DOUBLE_EQ(Sum(a), 18.0);
  EXPECT_FLOAT_EQ(MaxAbsDiff(a, b), 3.0f);
  EXPECT_FALSE(AllClose(a, b));
  b.at({1, 1}) = 2.0f;
  EXPECT_TRUE(AllClose(a, b));
}

TEST(Trace, RecordsAndSerializesSpans) {
  sim::TraceRecorder trace;
  trace.AddSpan(0, 1, "gemm", 1000, 5000, "compute");
  trace.AddSpan(1, 2, "pull", 0, 2200, "comm");
  EXPECT_EQ(trace.size(), 2u);
  const std::string json = trace.ToJson();
  EXPECT_NE(json.find("\"name\":\"gemm\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("traceEvents"), std::string::npos);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
}

}  // namespace
}  // namespace tilelink
