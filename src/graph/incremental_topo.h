//===- graph/incremental_topo.h - Dynamic topological order ------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Pearce–Kelly-style dynamically maintained topological order over a
/// growing directed graph: inserting an edge reorders only the affected
/// region between the endpoints, and an insertion that would close a cycle
/// is rejected with the offending path extracted on the spot — no full SCC
/// re-pass over the graph. This is what lets the incremental saturation
/// engine (checker/saturation_state.h) keep the commit relation ordered
/// and cycle-checked in time proportional to the delta of each flush
/// instead of the whole live window.
///
/// Reference: D. J. Pearce and P. H. J. Kelly, "A Dynamic Topological Sort
/// Algorithm for Directed Acyclic Graphs", JEA 11 (2006).
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_GRAPH_INCREMENTAL_TOPO_H
#define AWDIT_GRAPH_INCREMENTAL_TOPO_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace awdit {

class ByteWriter;
class ByteReader;

/// A directed graph with a maintained topological order. Nodes are dense
/// ids appended at the end of the order; the edge set must stay acyclic —
/// addEdge() refuses (and reports) an edge that would close a cycle, so
/// the caller decides what to do with it (the saturation engine reports a
/// violation and quarantines the edge).
///
/// Node ids are never renumbered (evictBelow() retires a prefix), nor are
/// positions, which are only ever compared: a node starts at its id.
///
/// Each distinct (From, To) pair may be inserted at most once; the caller
/// deduplicates (the saturation engine refcounts edges per source).
class IncrementalTopoOrder {
public:
  /// Appends \p Count nodes at the end of the order, with the next ids.
  void addNodes(size_t Count);

  /// The live node ids are [firstNode(), endNode()).
  uint32_t firstNode() const { return First; }
  uint32_t endNode() const {
    return NodeBase + static_cast<uint32_t>(Pos.size());
  }
  size_t numNodes() const { return endNode() - First; }
  size_t numEdges() const { return EdgeCount; }

  /// Position of node \p N in the maintained order. Distinct per node and
  /// only meaningful relative to other positions.
  uint32_t position(uint32_t N) const { return Pos[N - NodeBase]; }

  /// Inserts the edge \p From -> \p To, reordering the affected region if
  /// needed. Returns true on success (the order stays valid). Returns
  /// false — without modifying the graph — when the edge would close a
  /// cycle; if \p CyclePath is non-null it receives the existing path
  /// To -> ... -> From (node ids, consecutive pairs are edges), which
  /// together with (From, To) forms the cycle.
  bool addEdge(uint32_t From, uint32_t To,
               std::vector<uint32_t> *CyclePath = nullptr);

  /// Removes the edge \p From -> \p To (which must be present). Deleting
  /// an edge never invalidates a topological order, so this is O(deg).
  void removeEdge(uint32_t From, uint32_t To);

  /// Retires the nodes [firstNode(), \p NewFirst) and every edge incident
  /// to them, appending those to \p Removed as (from, to). A survivor's
  /// entry for a retired node stays behind as a retired id until its list
  /// is next walked, so the cost is the retired nodes' own adjacency;
  /// their storage is released in bulk, amortized.
  void evictBelow(uint32_t NewFirst,
                  std::vector<std::pair<uint32_t, uint32_t>> &Removed);

  /// Adjacency of \p N. May hold retired ids (below firstNode()), which
  /// are not edges.
  const std::vector<uint32_t> &succs(uint32_t N) const {
    return Out[N - NodeBase];
  }
  const std::vector<uint32_t> &preds(uint32_t N) const {
    return In[N - NodeBase];
  }

  /// Checkpoint support (checker/checkpoint.h): serializes the maintained
  /// order and adjacency *verbatim* — positions and adjacency-list order
  /// affect which witness path a later cycle extraction walks, so a
  /// restored monitor must continue from the exact same internal state,
  /// not a rebuilt-equivalent one. The DFS scratch (epoch marks) is
  /// transient and reset on load.
  ///
  /// \p Localize writes the v1 layout (ids relative to firstNode(),
  /// positions as dense ranks); otherwise ids and positions are written as
  /// in memory. \p KindBase numbers the emitted chunk sections — this class
  /// claims kinds KindBase..KindBase+2 (positions, out-, in-adjacency).
  void saveState(ByteWriter &W, bool Localize, uint64_t KindBase = 0) const;
  /// Restores saveState() bytes whose first node is \p FirstId;
  /// \p Localized says they were written with Localize.
  bool loadState(ByteReader &R, uint32_t FirstId, bool Localized);

private:
  /// Forward discovery from \p To bounded by position \p Limit. Returns
  /// false when \p From was reached (a cycle); fills Parent for path
  /// extraction. Visited nodes accumulate in \p Region.
  bool discoverForward(uint32_t From, uint32_t To, uint32_t Limit,
                       std::vector<uint32_t> &Region);

  /// Drops retired ids from \p List, keeping the order of the rest.
  void purge(std::vector<uint32_t> &List) const;

  /// Storage index of node \p N.
  uint32_t slot(uint32_t N) const { return N - NodeBase; }

  /// Per-node storage, indexed by id - NodeBase. Slots below First belong
  /// to retired nodes awaiting release.
  std::vector<std::vector<uint32_t>> Out;
  std::vector<std::vector<uint32_t>> In;
  std::vector<uint32_t> Pos;
  uint32_t NodeBase = 0;
  uint32_t First = 0;
  size_t EdgeCount = 0;

  // Epoch-stamped DFS scratch, reused across insertions.
  std::vector<uint32_t> Mark;
  std::vector<uint32_t> Parent;
  uint32_t Epoch = 0;
  std::vector<uint32_t> Stack;
};

} // namespace awdit

#endif // AWDIT_GRAPH_INCREMENTAL_TOPO_H
