//===- tests/test_incremental_topo.cpp - Pearce–Kelly order tests ----------===//
//
// Unit battery for the dynamically maintained topological order behind the
// incremental saturation engine: the order invariant must hold after any
// acyclic insertion sequence, a cycle-closing insertion must be rejected
// with a genuine path, deletions and prefix eviction must preserve the
// invariant.
//
//===----------------------------------------------------------------------===//

#include "graph/incremental_topo.h"
#include "support/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

using namespace awdit;

namespace {

/// The maintained invariant: every edge goes forward in the order.
void expectOrderValid(const IncrementalTopoOrder &G) {
  std::vector<bool> SeenPos(G.endNode(), false);
  for (uint32_t N = G.firstNode(); N < G.endNode(); ++N) {
    uint32_t P = G.position(N);
    ASSERT_LT(P, G.endNode());
    EXPECT_FALSE(SeenPos[P]) << "position " << P << " assigned twice";
    SeenPos[P] = true;
    for (uint32_t S : G.succs(N)) {
      if (S < G.firstNode())
        continue; // a retired node's leftover entry
      EXPECT_LT(G.position(N), G.position(S))
          << "edge " << N << " -> " << S << " violates the order";
    }
  }
}

/// Reference reachability on the current adjacency.
bool reaches(const IncrementalTopoOrder &G, uint32_t From, uint32_t To) {
  std::vector<uint32_t> Stack{From};
  std::set<uint32_t> Seen{From};
  while (!Stack.empty()) {
    uint32_t U = Stack.back();
    Stack.pop_back();
    if (U == To)
      return true;
    for (uint32_t S : G.succs(U))
      if (Seen.insert(S).second)
        Stack.push_back(S);
  }
  return false;
}

} // namespace

TEST(IncrementalTopo, ForwardChainIsCheap) {
  IncrementalTopoOrder G;
  G.addNodes(5);
  for (uint32_t I = 0; I + 1 < 5; ++I)
    EXPECT_TRUE(G.addEdge(I, I + 1));
  expectOrderValid(G);
  EXPECT_EQ(G.numEdges(), 4u);
}

TEST(IncrementalTopo, BackwardInsertionReorders) {
  IncrementalTopoOrder G;
  G.addNodes(4);
  // Insert against the initial order: 3 -> 2 -> 1 -> 0.
  EXPECT_TRUE(G.addEdge(3, 2));
  EXPECT_TRUE(G.addEdge(2, 1));
  EXPECT_TRUE(G.addEdge(1, 0));
  expectOrderValid(G);
  EXPECT_LT(G.position(3), G.position(0));
}

TEST(IncrementalTopo, CycleIsRejectedWithPath) {
  IncrementalTopoOrder G;
  G.addNodes(4);
  ASSERT_TRUE(G.addEdge(0, 1));
  ASSERT_TRUE(G.addEdge(1, 2));
  ASSERT_TRUE(G.addEdge(2, 3));
  std::vector<uint32_t> Path;
  EXPECT_FALSE(G.addEdge(3, 0, &Path));
  // The path is the existing route To -> ... -> From.
  ASSERT_GE(Path.size(), 2u);
  EXPECT_EQ(Path.front(), 0u);
  EXPECT_EQ(Path.back(), 3u);
  for (size_t I = 0; I + 1 < Path.size(); ++I) {
    const std::vector<uint32_t> &Succs = G.succs(Path[I]);
    EXPECT_NE(std::find(Succs.begin(), Succs.end(), Path[I + 1]),
              Succs.end())
        << "path step " << I << " is not an edge";
  }
  // The rejected edge must not have been added.
  EXPECT_EQ(G.numEdges(), 3u);
  expectOrderValid(G);
}

TEST(IncrementalTopo, SelfEdgeIsRejected) {
  IncrementalTopoOrder G;
  G.addNodes(2);
  std::vector<uint32_t> Path;
  EXPECT_FALSE(G.addEdge(1, 1, &Path));
  EXPECT_EQ(G.numEdges(), 0u);
}

TEST(IncrementalTopo, RemoveEdgeAllowsReversal) {
  IncrementalTopoOrder G;
  G.addNodes(3);
  ASSERT_TRUE(G.addEdge(0, 1));
  ASSERT_TRUE(G.addEdge(1, 2));
  EXPECT_FALSE(G.addEdge(2, 0));
  G.removeEdge(0, 1);
  EXPECT_TRUE(G.addEdge(2, 0)); // the blocking path is gone
  expectOrderValid(G);
}

TEST(IncrementalTopo, RandomizedAgainstReachability) {
  Rng Rand(42);
  for (int Round = 0; Round < 20; ++Round) {
    size_t N = 8 + Rand.nextBelow(40);
    IncrementalTopoOrder G;
    G.addNodes(N);
    std::set<std::pair<uint32_t, uint32_t>> Present;
    for (int Step = 0; Step < 300; ++Step) {
      uint32_t U = static_cast<uint32_t>(Rand.nextBelow(N));
      uint32_t V = static_cast<uint32_t>(Rand.nextBelow(N));
      if (U == V || Present.count({U, V}))
        continue;
      bool WouldCycle = reaches(G, V, U);
      std::vector<uint32_t> Path;
      bool Added = G.addEdge(U, V, &Path);
      EXPECT_EQ(Added, !WouldCycle)
          << "edge " << U << " -> " << V << " round " << Round;
      if (Added) {
        Present.insert({U, V});
      } else {
        ASSERT_FALSE(Path.empty());
        EXPECT_EQ(Path.front(), V);
        EXPECT_EQ(Path.back(), U);
      }
      // Occasionally delete a random present edge.
      if (!Present.empty() && Rand.nextBelow(10) == 0) {
        auto It = Present.begin();
        std::advance(It, Rand.nextBelow(Present.size()));
        G.removeEdge(It->first, It->second);
        Present.erase(It);
      }
    }
    expectOrderValid(G);
    EXPECT_EQ(G.numEdges(), Present.size());
  }
}

TEST(IncrementalTopo, EvictBelowKeepsIdsAndOrder) {
  IncrementalTopoOrder G;
  G.addNodes(8);
  // A few backward insertions to scramble positions first.
  ASSERT_TRUE(G.addEdge(5, 2));
  ASSERT_TRUE(G.addEdge(7, 3));
  ASSERT_TRUE(G.addEdge(2, 3));
  ASSERT_TRUE(G.addEdge(0, 1));
  // Remove everything incident to the prefix [0, 2).
  G.removeEdge(0, 1);
  uint32_t Pos5 = G.position(5), Pos3 = G.position(3);
  std::vector<std::pair<uint32_t, uint32_t>> Removed;
  G.evictBelow(2, Removed);
  EXPECT_TRUE(Removed.empty());
  ASSERT_EQ(G.numNodes(), 6u);
  EXPECT_EQ(G.firstNode(), 2u);
  // Survivors keep their ids, positions and edges.
  EXPECT_EQ(G.position(5), Pos5);
  EXPECT_EQ(G.position(3), Pos3);
  EXPECT_EQ(G.numEdges(), 3u);
  const std::vector<uint32_t> &S5 = G.succs(5);
  EXPECT_NE(std::find(S5.begin(), S5.end(), 2u), S5.end());
  expectOrderValid(G);
  // New nodes take the next ids and join the end of the order.
  G.addNodes(2);
  EXPECT_EQ(G.endNode(), 10u);
  EXPECT_TRUE(G.addEdge(9, 8));
  EXPECT_FALSE(G.addEdge(3, 5));
  expectOrderValid(G);
}

TEST(IncrementalTopo, LongSlidingWindowStaysValid) {
  // A window of 32 nodes slides over 5000. Every new node points back at
  // its predecessor and at a node half a window older — backward edges, so
  // each insertion reorders — and the oldest node leaves.
  IncrementalTopoOrder G;
  G.addNodes(32);
  for (uint32_t N = 0; N + 32 < 5000; ++N) {
    G.addNodes(1);
    uint32_t New = G.endNode() - 1;
    ASSERT_TRUE(G.addEdge(New, New - 1));
    ASSERT_TRUE(G.addEdge(New, N + 16));
    // Retire N with its edges. Its own out-edges point at nodes already
    // retired; what remains are the edges into it from N + 16 (added once
    // N >= 16) and from N + 1 (a new node once N >= 31).
    std::vector<std::pair<uint32_t, uint32_t>> Removed;
    G.evictBelow(N + 1, Removed);
    ASSERT_EQ(Removed.size(), size_t(N >= 16) + size_t(N >= 31)) << N;
  }
  EXPECT_EQ(G.numNodes(), 32u);
  expectOrderValid(G);
}
