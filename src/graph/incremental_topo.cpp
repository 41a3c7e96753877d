//===- graph/incremental_topo.cpp - Dynamic topological order --------------===//

#include "graph/incremental_topo.h"

#include "support/assert.h"
#include "support/serialize.h"

#include <algorithm>

using namespace awdit;

void IncrementalTopoOrder::addNodes(size_t Count) {
  size_t N = Pos.size();
  Out.resize(N + Count);
  In.resize(N + Count);
  Pos.resize(N + Count);
  Mark.resize(N + Count, 0);
  Parent.resize(N + Count, 0);
  // New nodes join at the end of the order: nothing points at them yet, so
  // any suffix placement is valid. Every position ever handed out is an id
  // below the new ones, so a new node's id exceeds every live position.
  for (size_t I = N; I < N + Count; ++I)
    Pos[I] = NodeBase + static_cast<uint32_t>(I);
}

bool IncrementalTopoOrder::discoverForward(uint32_t From, uint32_t To,
                                          uint32_t Limit,
                                          std::vector<uint32_t> &Region) {
  Stack.clear();
  Stack.push_back(To);
  Mark[slot(To)] = Epoch;
  while (!Stack.empty()) {
    uint32_t U = Stack.back();
    Stack.pop_back();
    Region.push_back(U);
    purge(Out[slot(U)]);
    for (uint32_t W : Out[slot(U)]) {
      if (W == From) {
        Parent[slot(From)] = U;
        return false;
      }
      if (Pos[slot(W)] < Limit && Mark[slot(W)] != Epoch) {
        Mark[slot(W)] = Epoch;
        Parent[slot(W)] = U;
        Stack.push_back(W);
      }
    }
  }
  return true;
}

bool IncrementalTopoOrder::addEdge(uint32_t From, uint32_t To,
                                   std::vector<uint32_t> *CyclePath) {
  AWDIT_ASSERT(From >= First && From < endNode() && To >= First &&
                   To < endNode(),
               "addEdge: unknown node");
  if (From == To) {
    if (CyclePath) {
      CyclePath->clear();
      CyclePath->push_back(To);
    }
    return false;
  }
  uint32_t PosFrom = Pos[slot(From)], PosTo = Pos[slot(To)];
  if (PosFrom < PosTo) {
    Out[slot(From)].push_back(To);
    In[slot(To)].push_back(From);
    ++EdgeCount;
    return true;
  }

  // The edge points backwards in the current order: discover the affected
  // region [PosTo, PosFrom] and reorder it (Pearce–Kelly).
  ++Epoch;
  std::vector<uint32_t> Fwd, Bwd;
  if (!discoverForward(From, To, PosFrom, Fwd)) {
    // To already reaches From: the new edge would close a cycle. Extract
    // the discovery path To -> ... -> From from the parent pointers.
    if (CyclePath) {
      CyclePath->clear();
      for (uint32_t N = From; N != To; N = Parent[slot(N)])
        CyclePath->push_back(N);
      CyclePath->push_back(To);
      std::reverse(CyclePath->begin(), CyclePath->end());
    }
    return false;
  }

  // Backward discovery from From, bounded below by PosTo.
  Stack.clear();
  Stack.push_back(From);
  Mark[slot(From)] = Epoch;
  while (!Stack.empty()) {
    uint32_t U = Stack.back();
    Stack.pop_back();
    Bwd.push_back(U);
    purge(In[slot(U)]);
    for (uint32_t W : In[slot(U)]) {
      if (Pos[slot(W)] > PosTo && Mark[slot(W)] != Epoch) {
        Mark[slot(W)] = Epoch;
        Stack.push_back(W);
      }
    }
  }

  // Reorder: the backward set (things reaching From) takes the smallest
  // affected positions in its existing relative order, then the forward
  // set (things reachable from To). That puts From before To while
  // preserving every other constraint inside the region.
  auto ByPos = [this](uint32_t A, uint32_t B) {
    return Pos[slot(A)] < Pos[slot(B)];
  };
  std::sort(Fwd.begin(), Fwd.end(), ByPos);
  std::sort(Bwd.begin(), Bwd.end(), ByPos);
  std::vector<uint32_t> Slots;
  Slots.reserve(Fwd.size() + Bwd.size());
  for (uint32_t N : Bwd)
    Slots.push_back(Pos[slot(N)]);
  for (uint32_t N : Fwd)
    Slots.push_back(Pos[slot(N)]);
  std::sort(Slots.begin(), Slots.end());
  size_t Next = 0;
  for (uint32_t N : Bwd)
    Pos[slot(N)] = Slots[Next++];
  for (uint32_t N : Fwd)
    Pos[slot(N)] = Slots[Next++];

  Out[slot(From)].push_back(To);
  In[slot(To)].push_back(From);
  ++EdgeCount;
  return true;
}

void IncrementalTopoOrder::purge(std::vector<uint32_t> &List) const {
  std::erase_if(List, [this](uint32_t V) { return V < First; });
}

void IncrementalTopoOrder::removeEdge(uint32_t From, uint32_t To) {
  auto Drop = [this](std::vector<uint32_t> &List, uint32_t Value) {
    purge(List);
    auto It = std::find(List.begin(), List.end(), Value);
    AWDIT_ASSERT(It != List.end(), "removeEdge: edge not present");
    *It = List.back();
    List.pop_back();
  };
  Drop(Out[slot(From)], To);
  Drop(In[slot(To)], From);
  --EdgeCount;
}

void IncrementalTopoOrder::evictBelow(
    uint32_t NewFirst, std::vector<std::pair<uint32_t, uint32_t>> &Removed) {
  AWDIT_ASSERT(NewFirst >= First && NewFirst <= endNode(),
               "evictBelow: cut outside the live nodes");
  // Report each edge once: every out-edge of a retired node, and the
  // in-edges coming from survivors. The survivors' mirror entries become
  // retired ids, purged when their list is next walked.
  size_t Before = Removed.size();
  for (uint32_t N = First; N < NewFirst; ++N) {
    for (uint32_t W : Out[slot(N)])
      if (W >= First)
        Removed.emplace_back(N, W);
    for (uint32_t U : In[slot(N)])
      if (U >= NewFirst)
        Removed.emplace_back(U, N);
    std::vector<uint32_t>().swap(Out[slot(N)]);
    std::vector<uint32_t>().swap(In[slot(N)]);
  }
  EdgeCount -= Removed.size() - Before;

  First = NewFirst;
  size_t Dead = First - NodeBase;
  if (Dead < 64 || 4 * Dead < Pos.size() - Dead)
    return;
  Out.erase(Out.begin(), Out.begin() + Dead);
  In.erase(In.begin(), In.begin() + Dead);
  Pos.erase(Pos.begin(), Pos.begin() + Dead);
  Mark.erase(Mark.begin(), Mark.begin() + Dead);
  Parent.erase(Parent.begin(), Parent.begin() + Dead);
  NodeBase = First;
}

//===----------------------------------------------------------------------===//
// Checkpoint support.
//===----------------------------------------------------------------------===//

void IncrementalTopoOrder::saveState(ByteWriter &W, bool Localize,
                                     uint64_t KindBase) const {
  size_t N = numNodes();
  W.chunk(chunkId(KindBase));
  W.u64(N);
  // The v1 layout numbers positions densely; ranks preserve every
  // comparison, which is all positions are used for.
  std::vector<uint32_t> Rank;
  if (Localize) {
    std::vector<uint32_t> ByPos(N);
    for (uint32_t I = 0; I < N; ++I)
      ByPos[I] = I;
    std::sort(ByPos.begin(), ByPos.end(), [&](uint32_t A, uint32_t B) {
      return Pos[slot(First + A)] < Pos[slot(First + B)];
    });
    Rank.resize(N);
    for (uint32_t R = 0; R < N; ++R)
      Rank[ByPos[R]] = R;
  }
  for (size_t I = 0; I < N; ++I) {
    W.chunk(chunkId(KindBase, 1 + ((First + I) >> 6)));
    W.u32(Localize ? Rank[I] : Pos[slot(First + static_cast<uint32_t>(I))]);
  }
  uint32_t IdShift = Localize ? First : 0;
  auto SaveAdjacency = [&](const std::vector<std::vector<uint32_t>> &Lists,
                           uint64_t Kind) {
    W.chunk(chunkId(Kind));
    for (size_t I = 0; I < N; ++I) {
      W.chunk(chunkId(Kind, 1 + ((First + I) >> 4)));
      const std::vector<uint32_t> &List =
          Lists[slot(First + static_cast<uint32_t>(I))];
      W.u64(std::count_if(List.begin(), List.end(),
                          [&](uint32_t V) { return V >= First; }));
      for (uint32_t V : List)
        if (V >= First)
          W.u32(V - IdShift);
    }
  };
  SaveAdjacency(Out, KindBase + 1);
  SaveAdjacency(In, KindBase + 2);
}

bool IncrementalTopoOrder::loadState(ByteReader &R, uint32_t FirstId,
                                     bool Localized) {
  uint64_t N = R.u64();
  if (!R.checkCount(N, 4))
    return false;
  NodeBase = First = FirstId;
  Pos.resize(N);
  for (uint64_t I = 0; I < N; ++I)
    Pos[I] = R.u32();
  uint32_t IdShift = Localized ? FirstId : 0;
  auto LoadAdjacency = [&](std::vector<std::vector<uint32_t>> &Lists) {
    Lists.assign(N, {});
    for (uint64_t I = 0; I < N && R.ok(); ++I) {
      uint64_t Len = R.u64();
      if (!R.checkCount(Len, 4))
        return;
      Lists[I].resize(Len);
      for (uint64_t J = 0; J < Len; ++J)
        Lists[I][J] = R.u32() + IdShift;
    }
  };
  LoadAdjacency(Out);
  LoadAdjacency(In);
  EdgeCount = 0;
  for (const std::vector<uint32_t> &List : Out)
    EdgeCount += List.size();
  // DFS scratch is transient.
  Mark.assign(N, 0);
  Parent.assign(N, 0);
  Epoch = 0;
  Stack.clear();
  return R.ok();
}
