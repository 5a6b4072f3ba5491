// Tests for the move-only small-buffer callable.
#include "common/function.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace sora {
namespace {

// Larger than the inline buffer, so it lives on the heap.
struct BigCapture {
  std::array<int, 40> values{};
  int* out = nullptr;
  void operator()() const {
    for (int v : values) *out += v;
  }
};
static_assert(sizeof(BigCapture) > UniqueFunction::kInlineSize);

// Small, but a throwing move keeps it off the inline path.
struct ThrowingMove {
  int* out;
  ThrowingMove(int* o) : out(o) {}  // NOLINT(google-explicit-constructor)
  ThrowingMove(const ThrowingMove& other) = default;
  ThrowingMove(ThrowingMove&& other) noexcept(false) : out(other.out) {}
  void operator()() const { ++*out; }
};

TEST(UniqueFunction, EmptyByDefault) {
  UniqueFunction f;
  EXPECT_FALSE(f);
  UniqueFunction g = nullptr;
  EXPECT_FALSE(g);
  g.reset();  // resetting an empty function is a no-op
  EXPECT_FALSE(g);
}

TEST(UniqueFunction, InlinePayloadRuns) {
  int calls = 0;
  UniqueFunction f = [&calls] { ++calls; };
  ASSERT_TRUE(f);
  f();
  f();
  EXPECT_EQ(calls, 2);
}

TEST(UniqueFunction, HeapPayloadsRun) {
  int sum = 0;
  BigCapture big;
  for (int i = 0; i < 40; ++i) big.values[static_cast<std::size_t>(i)] = i;
  big.out = &sum;
  UniqueFunction f = big;
  f();
  EXPECT_EQ(sum, 780);

  int calls = 0;
  UniqueFunction g = ThrowingMove(&calls);
  UniqueFunction h = std::move(g);
  h();
  EXPECT_EQ(calls, 1);
}

// A callable moved down a chain runs from the last holder only; every
// earlier holder is empty.
TEST(UniqueFunction, MoveChainLeavesOneHolder) {
  int calls = 0;
  int sum = 0;
  BigCapture big;
  big.values.fill(1);
  big.out = &sum;
  for (int payload = 0; payload < 2; ++payload) {
    UniqueFunction a;
    if (payload == 0) {
      a = [&calls] { ++calls; };
    } else {
      a = big;
    }
    UniqueFunction b(std::move(a));
    UniqueFunction c;
    c = std::move(b);
    UniqueFunction d = std::move(c);
    EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
    EXPECT_FALSE(c);  // NOLINT(bugprone-use-after-move)
    ASSERT_TRUE(d);
    d();
  }
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(sum, 40);
}

TEST(UniqueFunction, SelfMoveAssignKeepsThePayload) {
  auto token = std::make_shared<int>(5);
  int seen = 0;
  UniqueFunction f = [token, &seen] { seen = *token; };
  UniqueFunction& alias = f;
  f = std::move(alias);
  ASSERT_TRUE(f);
  EXPECT_EQ(token.use_count(), 2);
  f();
  EXPECT_EQ(seen, 5);
}

// Captures are freed exactly once: by reset, by assigning over the holder,
// or by the last holder's destructor, never by a moved-from holder.
TEST(UniqueFunction, ResetFreesCapturesExactlyOnce) {
  auto inline_token = std::make_shared<int>(1);
  auto heap_token = std::make_shared<int>(2);
  BigCapture big;
  {
    UniqueFunction a = [inline_token] {};
    UniqueFunction h = [heap_token, big] {};
    EXPECT_EQ(inline_token.use_count(), 2);
    EXPECT_EQ(heap_token.use_count(), 2);

    UniqueFunction b = std::move(a);
    UniqueFunction g = std::move(h);
    EXPECT_EQ(inline_token.use_count(), 2);
    EXPECT_EQ(heap_token.use_count(), 2);

    a.reset();  // NOLINT(bugprone-use-after-move)
    h.reset();  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(inline_token.use_count(), 2);
    EXPECT_EQ(heap_token.use_count(), 2);

    b.reset();
    EXPECT_EQ(inline_token.use_count(), 1);
    b.reset();
    EXPECT_EQ(inline_token.use_count(), 1);

    // Assigning over a holder frees what it held.
    g = [] {};
    EXPECT_EQ(heap_token.use_count(), 1);

    UniqueFunction c = [inline_token] {};
    EXPECT_EQ(inline_token.use_count(), 2);
    c = nullptr;
    EXPECT_EQ(inline_token.use_count(), 1);

    UniqueFunction d = [inline_token] {};
    EXPECT_EQ(inline_token.use_count(), 2);
  }
  // d's destructor released the last copy.
  EXPECT_EQ(inline_token.use_count(), 1);
  EXPECT_EQ(heap_token.use_count(), 1);
}

// A trivially copyable capture (the request path's `[this, v, ...]`) keeps
// every value through moves between holders and through vector growth.
TEST(UniqueFunction, TrivialCaptureKeepsItsValuesThroughMoves) {
  struct Out {
    const void* ptr = nullptr;
    std::size_t a = 0;
    long b = 0;
    int c = 0;
    double d = 0.0;
  };
  std::vector<Out> outs(50);
  std::vector<UniqueFunction> fns;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    Out* out = &outs[i];
    const void* ptr = &outs;
    const long b = -static_cast<long>(i) * 1'000'003;
    const int c = static_cast<int>(i) * 7;
    const double d = 0.5 + static_cast<double>(i);
    auto fn = [out, ptr, i, b, c, d] { *out = Out{ptr, i, b, c, d}; };
    static_assert(std::is_trivially_copyable_v<decltype(fn)>);
    UniqueFunction f = fn;
    UniqueFunction g = std::move(f);
    UniqueFunction h;
    h = std::move(g);
    fns.push_back(std::move(h));  // grows and relocates the earlier ones
  }
  std::vector<UniqueFunction> moved;
  for (UniqueFunction& f : fns) moved.push_back(std::move(f));
  for (UniqueFunction& f : moved) f();
  for (std::size_t i = 0; i < outs.size(); ++i) {
    EXPECT_EQ(outs[i].ptr, &outs);
    EXPECT_EQ(outs[i].a, i);
    EXPECT_EQ(outs[i].b, -static_cast<long>(i) * 1'000'003);
    EXPECT_EQ(outs[i].c, static_cast<int>(i) * 7);
    EXPECT_EQ(outs[i].d, 0.5 + static_cast<double>(i));
  }
}

// A non-trivial inline payload carries its state through a chain of
// relocations and is destroyed once, with the last holder.
TEST(UniqueFunction, NonTrivialInlinePayloadMovesItsState) {
  std::vector<int> log;
  auto shared = std::make_shared<std::vector<int>>(3, 9);
  UniqueFunction f = [shared, &log] {
    log.insert(log.end(), shared->begin(), shared->end());
  };
  std::vector<UniqueFunction> hops;
  hops.push_back(std::move(f));
  for (int i = 0; i < 5; ++i) {
    UniqueFunction next = std::move(hops.back());
    hops.back().reset();
    hops.push_back(std::move(next));
  }
  EXPECT_EQ(shared.use_count(), 2);
  hops.back()();
  EXPECT_EQ(log, (std::vector<int>{9, 9, 9}));
  hops.clear();
  EXPECT_EQ(shared.use_count(), 1);
}

}  // namespace
}  // namespace sora
