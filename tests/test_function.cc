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

// Records where it lives when it runs, so a test can tell an inline
// payload (inside the holder) from a heap one. `N` pads it past the buffer.
template <std::size_t N>
struct WhereAmI {
  std::array<unsigned char, N> pad{};
  const void** at = nullptr;
  void operator()() const { *at = this; }
};

bool runs_inline(UniqueFunction& f, const void** at) {
  f();
  const auto* self = reinterpret_cast<const unsigned char*>(&f);
  const auto* where = static_cast<const unsigned char*>(*at);
  return where >= self && where < self + sizeof(UniqueFunction);
}

// emplace puts a payload where the constructor would: inline when it fits
// and moves without throwing, on the heap otherwise.
TEST(UniqueFunction, EmplaceUsesTheConstructorsInlineOrHeapRule) {
  using Small = WhereAmI<8>;
  using Big = WhereAmI<UniqueFunction::kInlineSize>;
  static_assert(sizeof(Small) <= UniqueFunction::kInlineSize);
  static_assert(sizeof(Big) > UniqueFunction::kInlineSize);
  const void* at = nullptr;

  UniqueFunction built_small = Small{{}, &at};
  UniqueFunction placed_small;
  placed_small.emplace(Small{{}, &at});
  EXPECT_TRUE(runs_inline(built_small, &at));
  EXPECT_TRUE(runs_inline(placed_small, &at));

  UniqueFunction built_big = Big{{}, &at};
  UniqueFunction placed_big;
  placed_big.emplace(Big{{}, &at});
  EXPECT_FALSE(runs_inline(built_big, &at));
  EXPECT_FALSE(runs_inline(placed_big, &at));

  int calls = 0;
  UniqueFunction throwing;
  throwing.emplace(ThrowingMove(&calls));
  UniqueFunction moved = std::move(throwing);
  moved();
  EXPECT_EQ(calls, 1);

  // Emplacing a UniqueFunction takes over its payload instead of nesting it.
  UniqueFunction outer;
  outer.emplace(std::move(placed_small));
  EXPECT_FALSE(placed_small);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(runs_inline(outer, &at));
}

// Emplacing over a live payload destroys the old one exactly once, inline
// or heap, and the new one is destroyed with its holder.
TEST(UniqueFunction, EmplaceOverALivePayloadDestroysItOnce) {
  auto first = std::make_shared<int>(1);
  auto second = std::make_shared<int>(2);
  auto third = std::make_shared<int>(3);
  BigCapture big;
  int seen = 0;
  {
    UniqueFunction f = [first] {};
    EXPECT_EQ(first.use_count(), 2);
    f.emplace([second, big] {});  // inline -> heap
    EXPECT_EQ(first.use_count(), 1);
    EXPECT_EQ(second.use_count(), 2);
    f.emplace([third, &seen] { seen = *third; });  // heap -> inline
    EXPECT_EQ(second.use_count(), 1);
    EXPECT_EQ(third.use_count(), 2);
    f();
    EXPECT_EQ(seen, 3);
  }
  EXPECT_EQ(first.use_count(), 1);
  EXPECT_EQ(second.use_count(), 1);
  EXPECT_EQ(third.use_count(), 1);
}

// An emplaced trivially copyable payload moves by copying the buffer, as a
// constructed one does, and keeps its values; a payload with a non-trivial
// capture moves through its move constructor either way.
TEST(UniqueFunction, EmplacedTrivialPayloadMovesByCopy) {
  long out = 0;
  const long value = -1'000'003;
  auto trivial = [&out, value] { out = value; };
  static_assert(std::is_trivially_copyable_v<decltype(trivial)>);
  UniqueFunction built = trivial;
  UniqueFunction placed;
  placed.emplace(trivial);
  EXPECT_TRUE(built.moves_by_copy());
  EXPECT_TRUE(placed.moves_by_copy());
  UniqueFunction moved = std::move(placed);
  EXPECT_TRUE(moved.moves_by_copy());
  moved();
  EXPECT_EQ(out, value);

  auto token = std::make_shared<int>(4);
  UniqueFunction owning;
  owning.emplace([token] {});
  EXPECT_FALSE(owning.moves_by_copy());
  EXPECT_FALSE(UniqueFunction([token] {}).moves_by_copy());
  BigCapture big;
  UniqueFunction heap;
  heap.emplace([token, big] {});
  EXPECT_TRUE(heap.moves_by_copy());  // the buffer holds only the pointer
}

}  // namespace
}  // namespace sora
