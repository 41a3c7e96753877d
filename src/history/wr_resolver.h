//===- history/wr_resolver.h - Incremental wr resolution ---------*- C++ -*-===//
//
// Part of the AWDIT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The write-site index behind wr resolution (unique-value convention,
/// Definition 2.2): maps (key, value) to the transaction/op that wrote it
/// and rejects duplicate writes. Factored out of HistoryBuilder::build() so
/// the streaming Monitor can resolve wr *incrementally* — one write at a
/// time, with retroactive lookup of reads that arrived before their writer
/// — against the exact same index semantics the one-shot builder uses.
///
//===----------------------------------------------------------------------===//

#ifndef AWDIT_HISTORY_WR_RESOLVER_H
#define AWDIT_HISTORY_WR_RESOLVER_H

#include "history/types.h"

#include <string>
#include <unordered_map>

namespace awdit {

/// The canonical error text for a violated unique-value invariant, shared
/// by HistoryBuilder, the Monitor, and the format parsers so every layer
/// reports the same diagnostic.
inline std::string duplicateWriteMessage(Key K, Value V) {
  return "duplicate write of key " + std::to_string(K) + " value " +
         std::to_string(V) + " (wr resolution requires unique values)";
}

/// A (key, value) pair, hashable, for wr resolution and duplicate-write
/// detection.
struct KeyValue {
  Key K;
  Value V;
  bool operator==(const KeyValue &O) const { return K == O.K && V == O.V; }
};

struct KeyValueHash {
  size_t operator()(const KeyValue &KV) const {
    // Mix the two 64-bit halves; the multiplier is an arbitrary odd prime.
    uint64_t H = KV.K * 0x9e3779b97f4a7c15ULL;
    H ^= static_cast<uint64_t>(KV.V) + 0x7f4a7c15ULL + (H << 6) + (H >> 2);
    return static_cast<size_t>(H);
  }
};

/// Location of a write: owning transaction and op index within it.
struct WriteSite {
  TxnId T;
  uint32_t Op;
};

/// The (key, value) -> write-site index. wr^-1 must be a function, so
/// record() rejects a second write of the same pair.
class WriteSiteIndex {
public:
  /// Records a write of (\p K, \p V) at (\p T, \p Op). Returns false when
  /// the pair was already written (the model invariant violation).
  bool record(Key K, Value V, TxnId T, uint32_t Op) {
    return Index.insert({KeyValue{K, V}, WriteSite{T, Op}}).second;
  }

  /// Looks up the write site of (\p K, \p V); nullptr if nothing wrote it
  /// (so far).
  const WriteSite *find(Key K, Value V) const {
    auto It = Index.find(KeyValue{K, V});
    return It == Index.end() ? nullptr : &It->second;
  }

  /// Removes the entry for (\p K, \p V), if present. Used by the windowed
  /// Monitor when the writing transaction is evicted.
  void erase(Key K, Value V) { Index.erase(KeyValue{K, V}); }

  size_t size() const { return Index.size(); }

  /// Calls \p Fn(const KeyValue &, const WriteSite &) for every entry, in
  /// unspecified order. Checkpoint serialization sorts the result itself.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const auto &[KV, Site] : Index)
      F(KV, Site);
  }

private:
  std::unordered_map<KeyValue, WriteSite, KeyValueHash> Index;
};

} // namespace awdit

#endif // AWDIT_HISTORY_WR_RESOLVER_H
