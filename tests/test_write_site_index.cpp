//===- tests/test_write_site_index.cpp - Flat write-site index tests --------===//
//
// WriteSiteIndex is one open-addressing table (support/flat_table.h) that
// every wr resolution in the tree goes through: the Monitor, the one-shot
// HistoryBuilder and the plume/dbcop duplicate checks. Here it is held to
// a std::map model under seeded random record/find/erase sequences, and
// under the layouts linear probing gets wrong most easily: entries aimed
// at one home slot, runs that wrap past the end of the table, growth in
// the middle of such a run, and keys and values at the ends of their
// ranges.
//
//===----------------------------------------------------------------------===//

#include "history/wr_resolver.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

using namespace awdit;

namespace {

using Model = std::map<std::pair<Key, Value>, std::pair<TxnId, uint32_t>>;

constexpr Key MaxKey = std::numeric_limits<Key>::max();
constexpr Value MinValue = std::numeric_limits<Value>::min();
constexpr Value MaxValue = std::numeric_limits<Value>::max();

/// Records into both the index and the model; the index must accept
/// exactly when the model has no entry yet.
void record(WriteSiteIndex &Idx, Model &M, Key K, Value V, TxnId T,
            uint32_t Op) {
  bool Fresh = M.emplace(std::make_pair(K, V), std::make_pair(T, Op)).second;
  EXPECT_EQ(Idx.record(K, V, T, Op), Fresh) << "record " << K << "," << V;
}

void erase(WriteSiteIndex &Idx, Model &M, Key K, Value V) {
  Idx.erase(K, V);
  M.erase(std::make_pair(K, V));
}

/// The index holds exactly the model: every model entry is found with its
/// site, and forEach visits each live entry once and nothing else.
void expectMatches(const WriteSiteIndex &Idx, const Model &M) {
  ASSERT_EQ(Idx.size(), M.size());
  for (const auto &[KV, Site] : M) {
    const WriteSite *S = Idx.find(KV.first, KV.second);
    ASSERT_NE(S, nullptr) << "lost " << KV.first << "," << KV.second;
    EXPECT_EQ(S->T, Site.first);
    EXPECT_EQ(S->Op, Site.second);
  }
  Model Visited;
  Idx.forEach([&](const KeyValue &KV, const WriteSite &S) {
    EXPECT_TRUE(Visited
                    .emplace(std::make_pair(KV.K, KV.V),
                             std::make_pair(S.T, S.Op))
                    .second)
        << "forEach visited " << KV.K << "," << KV.V << " twice";
  });
  EXPECT_EQ(Visited, M);
}

/// The first \p N keys (value \p V) whose home slot at \p Capacity is
/// \p Slot, brute-forced from \p From upwards.
std::vector<Key> keysWithHome(size_t Capacity, size_t Slot, size_t N,
                              Value V = 0, Key From = 0) {
  std::vector<Key> Keys;
  for (Key K = From; Keys.size() < N; ++K)
    if ((WriteSiteIndex::hash(K, V) & (Capacity - 1)) == Slot)
      Keys.push_back(K);
  return Keys;
}

} // namespace

TEST(WriteSiteIndex, SeededRandomSequencesMatchMapModel) {
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    Rng R(Seed);
    WriteSiteIndex Idx;
    Model M;
    // A small universe, so records collide with live entries (rejected
    // duplicates) and erases hit present and absent pairs alike; the
    // extreme keys and values ride along.
    const Key Keys[] = {0, 1, 2, 3, 17, 1u << 20, MaxKey - 1, MaxKey};
    const Value Values[] = {MinValue, -1, 0, 1, 2, 5, MaxValue};
    for (int Step = 0; Step < 4000; ++Step) {
      Key K = R.nextBool(0.3) ? Keys[R.nextBelow(std::size(Keys))]
                              : R.nextBelow(256);
      Value V = Values[R.nextBelow(std::size(Values))];
      uint64_t Action = R.nextBelow(10);
      if (Action < 6) {
        record(Idx, M, K, V, static_cast<TxnId>(R.nextBelow(1000)),
               static_cast<uint32_t>(R.nextBelow(50)));
      } else if (Action < 9) {
        erase(Idx, M, K, V);
      } else {
        const WriteSite *S = Idx.find(K, V);
        auto It = M.find(std::make_pair(K, V));
        ASSERT_EQ(S != nullptr, It != M.end()) << "seed " << Seed;
        if (S) {
          EXPECT_EQ(S->T, It->second.first);
        }
      }
      if (Step % 97 == 0)
        expectMatches(Idx, M);
    }
    expectMatches(Idx, M);
    // Drain it: erasing every live entry leaves an empty table.
    Model Copy = M;
    for (const auto &[KV, Site] : Copy) {
      erase(Idx, M, KV.first, KV.second);
      (void)Site;
    }
    expectMatches(Idx, M);
  }
}

TEST(WriteSiteIndex, RunWrappingPastTheEndSurvivesEveryEraseOrder) {
  // Five entries homed at the last slot wrap to slots 0..3, and two homed
  // at slot 0 sit behind them. Erasing any one entry must slide the rest
  // of the run back — a hole left in the run hides everything after it.
  WriteSiteIndex Probe;
  const size_t Cap = Probe.capacity();
  std::vector<Key> Last = keysWithHome(Cap, Cap - 1, 5);
  std::vector<Key> First = keysWithHome(Cap, 0, 2);
  std::vector<Key> All = Last;
  All.insert(All.end(), First.begin(), First.end());
  for (size_t Victim = 0; Victim < All.size(); ++Victim) {
    WriteSiteIndex Idx;
    Model M;
    for (size_t I = 0; I < All.size(); ++I)
      record(Idx, M, All[I], 0, static_cast<TxnId>(I), 0);
    ASSERT_EQ(Idx.capacity(), Cap) << "the run must not trigger growth";
    expectMatches(Idx, M);
    erase(Idx, M, All[Victim], 0);
    expectMatches(Idx, M);
    // Then empty it front to back, checking after each erase.
    for (Key K : All) {
      erase(Idx, M, K, 0);
      expectMatches(Idx, M);
    }
  }
}

TEST(WriteSiteIndex, GrowthInTheMiddleOfARun) {
  // Twenty entries aimed at one home slot: the table grows while they are
  // being recorded, and every entry must be found at every step.
  WriteSiteIndex Idx;
  Model M;
  const size_t Cap = Idx.capacity();
  std::vector<Key> Keys = keysWithHome(Cap, 3, 20, /*V=*/7);
  for (size_t I = 0; I < Keys.size(); ++I) {
    record(Idx, M, Keys[I], 7, static_cast<TxnId>(I),
           static_cast<uint32_t>(I));
    expectMatches(Idx, M);
  }
  EXPECT_GT(Idx.capacity(), Cap);
  for (size_t I = 0; I < Keys.size(); I += 2) {
    erase(Idx, M, Keys[I], 7);
    expectMatches(Idx, M);
  }
}

TEST(WriteSiteIndex, DuplicateRecordIsRejectedAndKeepsTheFirstSite) {
  WriteSiteIndex Idx;
  EXPECT_TRUE(Idx.record(5, 50, /*T=*/1, /*Op=*/2));
  EXPECT_FALSE(Idx.record(5, 50, /*T=*/9, /*Op=*/9));
  ASSERT_EQ(Idx.size(), 1u);
  const WriteSite *S = Idx.find(5, 50);
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->T, 1u);
  EXPECT_EQ(S->Op, 2u);
  // The same key with another value, and the same value on another key,
  // are different pairs.
  EXPECT_TRUE(Idx.record(5, 51, 2, 0));
  EXPECT_TRUE(Idx.record(6, 50, 3, 0));
  EXPECT_EQ(Idx.size(), 3u);
  // Erasing frees the pair for a new writer.
  Idx.erase(5, 50);
  EXPECT_EQ(Idx.find(5, 50), nullptr);
  EXPECT_TRUE(Idx.record(5, 50, 4, 1));
  EXPECT_EQ(Idx.find(5, 50)->T, 4u);
}

TEST(WriteSiteIndex, ExtremeKeysAndValuesAreOrdinaryEntries) {
  // No key or value is reserved as an empty marker: (0, 0) — what an
  // empty slot holds — and the all-ones key are recorded like any other.
  WriteSiteIndex Idx;
  Model M;
  EXPECT_EQ(Idx.find(0, 0), nullptr);
  EXPECT_EQ(Idx.find(MaxKey, MaxValue), nullptr);
  const std::pair<Key, Value> Pairs[] = {
      {0, 0},           {MaxKey, MinValue}, {MaxKey, MaxValue},
      {MaxKey, 0},      {0, MinValue},      {0, MaxValue},
      {MaxKey - 1, -1}, {1, MinValue + 1}};
  uint32_t Op = 0;
  for (auto [K, V] : Pairs) {
    record(Idx, M, K, V, /*T=*/Op + 100, Op);
    ++Op;
  }
  expectMatches(Idx, M);
  for (auto [K, V] : Pairs)
    EXPECT_FALSE(Idx.record(K, V, 1, 1));
  erase(Idx, M, MaxKey, MinValue);
  erase(Idx, M, 0, 0);
  expectMatches(Idx, M);
  EXPECT_EQ(Idx.find(0, 0), nullptr);
}
