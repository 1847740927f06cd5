#include "src/skyline/dominance.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/rng.hpp"

namespace mrsky::skyline {
namespace {

using Vec = std::vector<double>;

TEST(Dominance, StrictlyBetterEverywhere) {
  EXPECT_TRUE(dominates(Vec{1.0, 1.0}, Vec{2.0, 2.0}));
  EXPECT_FALSE(dominates(Vec{2.0, 2.0}, Vec{1.0, 1.0}));
}

TEST(Dominance, BetterInOneEqualElsewhere) {
  EXPECT_TRUE(dominates(Vec{1.0, 2.0}, Vec{1.0, 3.0}));
  EXPECT_FALSE(dominates(Vec{1.0, 3.0}, Vec{1.0, 2.0}));
}

TEST(Dominance, EqualPointsDoNotDominate) {
  EXPECT_FALSE(dominates(Vec{1.0, 2.0}, Vec{1.0, 2.0}));
}

TEST(Dominance, IncomparablePoints) {
  EXPECT_FALSE(dominates(Vec{1.0, 3.0}, Vec{2.0, 2.0}));
  EXPECT_FALSE(dominates(Vec{2.0, 2.0}, Vec{1.0, 3.0}));
}

TEST(Dominance, SingleDimensionIsStrictLess) {
  EXPECT_TRUE(dominates(Vec{1.0}, Vec{2.0}));
  EXPECT_FALSE(dominates(Vec{2.0}, Vec{2.0}));
}

TEST(Dominance, IsIrreflexive) {
  common::Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    Vec p = {rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_FALSE(dominates(p, p));
  }
}

TEST(Dominance, IsAntisymmetric) {
  common::Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    Vec a = {rng.uniform(), rng.uniform(), rng.uniform()};
    Vec b = {rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_FALSE(dominates(a, b) && dominates(b, a));
  }
}

TEST(Dominance, IsTransitive) {
  common::Rng rng(3);
  int triples_checked = 0;
  for (int i = 0; i < 5000; ++i) {
    Vec a = {rng.uniform(), rng.uniform()};
    Vec b = {rng.uniform(), rng.uniform()};
    Vec c = {rng.uniform(), rng.uniform()};
    if (dominates(a, b) && dominates(b, c)) {
      EXPECT_TRUE(dominates(a, c));
      ++triples_checked;
    }
  }
  EXPECT_GT(triples_checked, 0);  // the property was actually exercised
}

TEST(Compare, AllFourRelations) {
  EXPECT_EQ(compare(Vec{1.0, 1.0}, Vec{2.0, 2.0}), DomRelation::kDominates);
  EXPECT_EQ(compare(Vec{2.0, 2.0}, Vec{1.0, 1.0}), DomRelation::kDominatedBy);
  EXPECT_EQ(compare(Vec{1.0, 3.0}, Vec{3.0, 1.0}), DomRelation::kIncomparable);
  EXPECT_EQ(compare(Vec{1.0, 2.0}, Vec{1.0, 2.0}), DomRelation::kEqual);
}

TEST(Compare, ConsistentWithDominates) {
  common::Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    Vec a = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    Vec b = {rng.uniform(), rng.uniform(), rng.uniform(), rng.uniform()};
    const DomRelation rel = compare(a, b);
    EXPECT_EQ(rel == DomRelation::kDominates, dominates(a, b));
    EXPECT_EQ(rel == DomRelation::kDominatedBy, dominates(b, a));
  }
}

TEST(Compare, SymmetryOfRelation) {
  common::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    Vec a = {rng.uniform(), rng.uniform()};
    Vec b = {rng.uniform(), rng.uniform()};
    const DomRelation ab = compare(a, b);
    const DomRelation ba = compare(b, a);
    if (ab == DomRelation::kDominates) {
      EXPECT_EQ(ba, DomRelation::kDominatedBy);
    }
    if (ab == DomRelation::kEqual) {
      EXPECT_EQ(ba, DomRelation::kEqual);
    }
    if (ab == DomRelation::kIncomparable) {
      EXPECT_EQ(ba, DomRelation::kIncomparable);
    }
  }
}

TEST(SkylineStats, Accumulates) {
  SkylineStats a{10, 100, 5};
  const SkylineStats b{1, 2, 3};
  a += b;
  EXPECT_EQ(a.dominance_tests, 11u);
  EXPECT_EQ(a.points_in, 102u);
  EXPECT_EQ(a.points_out, 8u);
}

}  // namespace
}  // namespace mrsky::skyline
