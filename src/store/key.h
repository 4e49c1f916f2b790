#pragma once
// Canonical content-addressed keys for the experiment store.
//
// A store key names one computation: "this exact trial on this exact
// graph under this exact protocol". Two requirements shape the design:
//
//  * Canonical — the key must not depend on incidental details of who
//    built it. KeyBuilder therefore hashes a canonical serialization:
//    (field, value) pairs sorted by field name, joined with unambiguous
//    separators. Adding the same fields in any order yields the same
//    digest (pinned by tests/store_test.cpp golden digests).
//  * Content-addressed — the graph contributes by *content*, not by
//    file name or generator flags: graph_digest() hashes the node
//    count and the full (u, v, latency) edge list in edge-id order. A
//    regenerated file with one latency changed gets a different key; a
//    byte-identical graph reached through a different path shares the
//    cache entry (the CLI's --in=FILE runs and the serve daemon's
//    generated graphs meet in the same key space).
//
// The key covers everything that decides a trial's SimResult: protocol
// name (store/run.h protocol_label()), graph content, source node,
// round cap, fault plan, the per-trial RNG seed, and a model-version
// tag. The tag is the "fingerprint-relevant build" knob: results are
// build-flag-invariant by the golden-fingerprint contract (DESIGN.md
// §5e), so keys deliberately exclude git hash and CXX flags — a rebuild
// must not cold the cache — and any future change that legitimately
// alters event streams bumps kStoreModelVersion instead. `latgossip run
// --store-verify` is the enforcement arm: it recomputes hits and
// asserts bit-identical results, catching a model change that forgot
// the bump.
//
// The digest is two independent 64-bit FNV-1a lanes with SplitMix64
// finalization — 128 bits, deterministic, dependency-free. Not
// cryptographic: this guards against accidental collision among
// experiment configurations, not an adversary.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace latgossip {

/// Bumped whenever an intentional engine/model change alters event
/// streams or SimResults for existing configurations — the store-wide
/// cache invalidation lever.
inline constexpr std::string_view kStoreModelVersion = "latgossip.model.v3";

/// 128-bit content-address. Value-type; hashes/compares cheaply.
struct StoreKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool operator==(const StoreKey&) const = default;

  /// 32 lowercase hex chars, hi then lo — the on-disk and wire form.
  std::string hex() const;
  static std::optional<StoreKey> from_hex(std::string_view s);
};

/// Exactly 16 lowercase hex digits (one half of a key's hex form, or an
/// event fingerprint after its "0x"); false on anything else.
bool parse_hex64(std::string_view s, std::uint64_t& out) noexcept;

struct StoreKeyHash {
  std::size_t operator()(const StoreKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// Accumulates named fields and digests their canonical serialization.
/// Field order at add() time is irrelevant; duplicate field names are a
/// caller bug (digest() throws — silent last-wins would make two
/// different configurations collide).
class KeyBuilder {
 public:
  KeyBuilder& add(std::string_view field, std::string_view value);
  KeyBuilder& add(std::string_view field, std::uint64_t value);
  KeyBuilder& add(std::string_view field, std::int64_t value);

  StoreKey digest() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Content digest of a graph: node count, edge count, and every
/// (u, v, latency) in edge-id order. Edge ids are insertion order and
/// part of the model (protocols pick contacts by adjacency index), so
/// order-sensitivity here is correct, not an accident.
std::uint64_t graph_digest(const WeightedGraph& g);

/// Identity of one store cell minus the per-trial seed. `kind`
/// distinguishes records whose meta payload differs for the same
/// simulation ("sim" = bare SimResult, "curve" = SimResult + per-round
/// informed counts in meta).
struct CellSpec {
  std::string protocol;        ///< protocol_label(), e.g. "flooding/dense"
  std::uint64_t graph = 0;     ///< graph_digest()
  NodeId source = 0;
  Round max_rounds = 0;
  std::string kind = "sim";
  /// canonical_dynamics() of the run's scenario; "" = none.
  std::string faults;
  std::string model{kStoreModelVersion};
};

/// The store key for trial-seed `trial_seed_value` of cell `cell`.
/// Pass the *derived* per-trial seed (sim/parallel.h trial_seed()), not
/// the batch seed — the cache is per cell, so a sweep resumed with a
/// different trial count still hits every cell it already computed.
StoreKey cell_key(const CellSpec& cell, std::uint64_t trial_seed_value);

}  // namespace latgossip
