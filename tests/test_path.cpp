#include "util/path.hpp"

#include <gtest/gtest.h>

#include <compare>
#include <cstdint>
#include <stdexcept>
#include <unordered_set>
#include <vector>

#include "sim/message.hpp"

namespace da {
namespace {

TEST(Path, EmptyByDefault) {
  const Path p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
}

TEST(Path, InitializerList) {
  const Path p{3, 1, 4};
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p[0], 3);
  EXPECT_EQ(p[1], 1);
  EXPECT_EQ(p[2], 4);
  EXPECT_EQ(p.front(), 3);
  EXPECT_EQ(p.back(), 4);
}

TEST(Path, PushPop) {
  Path p;
  p.push_back(5);
  p.push_back(6);
  EXPECT_EQ(p.back(), 6);
  p.pop_back();
  EXPECT_EQ(p.back(), 5);
  EXPECT_EQ(p.size(), 1u);
}

TEST(Path, Contains) {
  const Path p{0, 2, 7};
  EXPECT_TRUE(p.contains(0));
  EXPECT_TRUE(p.contains(7));
  EXPECT_FALSE(p.contains(1));
}

TEST(Path, Distinct) {
  EXPECT_TRUE((Path{0, 1, 2}).distinct());
  EXPECT_FALSE((Path{0, 1, 0}).distinct());
  EXPECT_TRUE(Path{}.distinct());
}

TEST(Path, ExtendedLeavesOriginalUntouched) {
  const Path p{1, 2};
  const Path q = p.extended(3);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.back(), 3);
}

TEST(Path, EqualityAndOrdering) {
  EXPECT_EQ((Path{1, 2}), (Path{1, 2}));
  EXPECT_FALSE((Path{1, 2}) == (Path{1, 3}));
  EXPECT_FALSE((Path{1, 2}) == (Path{1, 2, 3}));
  EXPECT_LT((Path{1, 2}), (Path{1, 3}));
  EXPECT_LT((Path{1, 2}), (Path{1, 2, 0}));

  // The same lexicographic order as over the hops widened to NodeId, for
  // every storable hop: the trace's canonical order depends on it.
  const std::vector<std::vector<NodeId>> hops{
      {}, {0}, {-1}, {127}, {-128}, {-128, 0}, {0, -128}, {0, 127},
      {127, -128}, {5, -1, 127, 63, 0, 2}};
  for (const auto& x : hops) {
    for (const auto& y : hops) {
      Path a;
      Path b;
      for (const NodeId hop : x) a.push_back(hop);
      for (const NodeId hop : y) b.push_back(hop);
      EXPECT_EQ(a <=> b, x <=> y) << a.to_string() << " " << b.to_string();
    }
  }
}

TEST(Path, HashConsistentWithEquality) {
  const Path a{4, 5, 6};
  const Path b{4, 5, 6};
  EXPECT_EQ(a.hash(), b.hash());
  std::unordered_set<Path> set;
  set.insert(a);
  set.insert(b);
  EXPECT_EQ(set.size(), 1u);
}

TEST(Path, HashDistinguishesLengthPrefixes) {
  // [1] vs [1,0] vs [1,0,0] must hash apart with overwhelming likelihood.
  const Path a{1};
  const Path b{1, 0};
  const Path c{1, 0, 0};
  EXPECT_NE(a.hash(), b.hash());
  EXPECT_NE(b.hash(), c.hash());
}

TEST(Path, ToString) {
  EXPECT_EQ((Path{0, 3, 1}).to_string(), "[0,3,1]");
  EXPECT_EQ(Path{}.to_string(), "[]");
}

TEST(Path, OverflowThrows) {
  Path p;
  for (std::size_t i = 0; i < Path::kMaxLen; ++i) {
    p.push_back(static_cast<NodeId>(i));
  }
  EXPECT_THROW(p.push_back(99), std::logic_error);
}

TEST(Path, PopEmptyThrows) {
  Path p;
  EXPECT_THROW(p.pop_back(), std::logic_error);
}

TEST(Path, RangeFor) {
  const Path p{2, 4, 6};
  int sum = 0;
  for (NodeId id : p) sum += id;
  EXPECT_EQ(sum, 12);
}

// One byte per hop keeps a whole message within 56 bytes (88 with 32-bit
// hops).
static_assert(sizeof(Path) == 13);
static_assert(sizeof(sim::Message) <= 56);

TEST(Path, HopsRoundTripAtByteBounds) {
  for (const NodeId id : {Path::kMinHop, -1, 0, 63, 127}) {
    Path p;
    p.push_back(id);
    EXPECT_EQ(p[0], id);
    EXPECT_EQ(p.front(), id);
    EXPECT_TRUE(p.contains(id));
    for (const NodeId hop : p) EXPECT_EQ(hop, id);
  }
  const Path p{-1, 0, 63, 127};
  EXPECT_EQ(p.to_string(), "[-1,0,63,127]");
  EXPECT_EQ(p.back(), 127);
}

TEST(Path, HopOutsideByteThrows) {
  Path p;
  EXPECT_THROW(p.push_back(128), std::logic_error);
  EXPECT_THROW(p.push_back(Path::kMinHop - 1), std::logic_error);
  EXPECT_TRUE(p.empty());
  EXPECT_THROW((Path{0, 128}), std::logic_error);
  // An id that does not fit is on no path, whatever its low byte.
  const Path q{0, 1};
  EXPECT_FALSE(q.contains(256));
  EXPECT_FALSE(q.contains(257));
  EXPECT_FALSE(q.contains(-256));
}

TEST(Path, HashEqualsInt32Formula) {
  // The formula over 32-bit hops, as it was before hops became bytes:
  // traces, adversary decisions and the injection hash all depend on it.
  const auto int32_hash = [](const std::vector<std::int32_t>& hops) {
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    for (const std::int32_t hop : hops) {
      h ^= static_cast<std::uint64_t>(hop) + 0x9e3779b97f4a7c15ULL +
           (h << 6) + (h >> 2);
    }
    return static_cast<std::size_t>(h ^ hops.size());
  };
  const std::vector<std::vector<std::int32_t>> cases{
      {}, {0}, {-1}, {127}, {-128}, {0, 3, 1}, {5, -1, 127, 63, 0, 2}};
  for (const auto& hops : cases) {
    Path p;
    for (const std::int32_t hop : hops) p.push_back(hop);
    EXPECT_EQ(p.hash(), int32_hash(hops)) << p.to_string();
  }
}

}  // namespace
}  // namespace da
