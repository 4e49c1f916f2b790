#pragma once
// Per-thread reusable trial scratch.
//
// Every Monte-Carlo sweep in EXPERIMENTS.md runs thousands of
// structurally identical trials, and before this existed each one
// rebuilt its whole engine from scratch: calendar-queue buckets,
// informed-set Bitsets, protocol state — roughly 1 MB of malloc churn
// per 512-node trial, most of which glibc immediately trimmed back to
// the kernel so the next trial re-paid the page faults too (measured:
// ~23% of run_trials_16x512 wall time; see DESIGN.md §5h). A
// TrialWorkspace is the fix: one per worker thread, surviving across
// trials and across run_trials() calls, holding every heavyweight
// object a trial wants to recycle.
//
// The workspace is a small type-keyed registry: slot<T>(args...)
// returns a persistent T, constructing it on the first call and
// returning the same object (args ignored) ever after. Users pair it
// with a reset()-for-reuse API on T:
//
//   auto& proto = ws.slot<PushPullBroadcast>(view, source, rng);
//   proto.reset(view, source, rng);   // re-arm; allocation-free when
//                                     // the graph size is unchanged
//
// The engine itself reuses its calendar queue the same way when
// SimOptions::workspace is set (sim/engine.h).
//
// Reset contract (what makes reuse invisible): a trial's observable
// behavior must depend only on its (graph, options, seed) inputs, never
// on what previously ran in the workspace. Capacity — vector/bitset
// allocations, bucket reservations — MAY carry over; values may not.
// The thread-invariance tests (tests/pool_test.cpp) prove this by
// fingerprint: reused-workspace runs are bit-identical to
// fresh-workspace runs at every thread count.
//
// Threading: a workspace belongs to one thread (TrialPool workers and
// the run_trials caller each use their own; see trial_workspace()
// below). It is not synchronized.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <typeindex>
#include <utility>
#include <vector>

namespace latgossip {

class TrialWorkspace {
 public:
  TrialWorkspace() = default;
  TrialWorkspace(const TrialWorkspace&) = delete;
  TrialWorkspace& operator=(const TrialWorkspace&) = delete;

  /// The workspace's persistent instance of T: constructed from `args`
  /// on the first call, returned as-is (args unused) afterwards. One
  /// slot per type — trials needing two independent instances of the
  /// same T should wrap them in distinct tag types.
  template <typename T, typename... Args>
  T& slot(Args&&... args) {
    const std::type_index key(typeid(T));
    for (const Slot& s : slots_)
      if (s.key == key) return *static_cast<T*>(s.ptr.get());
    slots_.emplace_back(
        Slot{key, ErasedPtr(new T(std::forward<Args>(args)...),
                            [](void* p) { delete static_cast<T*>(p); })});
    return *static_cast<T*>(slots_.back().ptr.get());
  }

  /// True iff slot<T>() has already been constructed here (tests use
  /// this to prove recycling without disturbing the slot).
  template <typename T>
  bool has_slot() const noexcept {
    return find_slot<T>() != nullptr;
  }

  /// The persistent T if already constructed, else nullptr. Unlike
  /// slot<T>(), never constructs — usable with types that have no
  /// default constructor when the caller only wants to inspect.
  template <typename T>
  T* find_slot() const noexcept {
    const std::type_index key(typeid(T));
    for (const Slot& s : slots_)
      if (s.key == key) return static_cast<T*>(s.ptr.get());
    return nullptr;
  }

  /// Distinct slot types constructed so far. Flat across steady-state
  /// trials — growth means something is not being recycled.
  std::size_t num_slots() const noexcept { return slots_.size(); }

  /// Trials executed in this workspace (stamped by run_trials).
  std::uint64_t trials_run() const noexcept { return trials_run_; }
  void note_trial() noexcept { ++trials_run_; }

 private:
  using ErasedPtr = std::unique_ptr<void, void (*)(void*)>;
  struct Slot {
    std::type_index key;
    ErasedPtr ptr;
  };
  std::vector<Slot> slots_;
  std::uint64_t trials_run_ = 0;
};

/// The calling thread's trial workspace at the current nesting depth.
/// Persistent per thread: pool workers and the main thread each keep
/// their workspaces alive across trials and across run_trials() calls,
/// which is what makes steady-state trial execution allocation-free.
/// Nested trial execution (a trial that itself calls run_trials, which
/// degrades to sequential on pool workers) gets a distinct workspace per
/// nesting level, so an outer trial's live protocol state is never
/// clobbered by an inner batch.
TrialWorkspace& trial_workspace();

namespace detail {
/// RAII nesting marker: while alive, trial_workspace() on this thread
/// returns the next-deeper workspace. run_trials holds one around each
/// trial invocation.
class TrialDepthScope {
 public:
  TrialDepthScope() noexcept;
  ~TrialDepthScope() noexcept;
  TrialDepthScope(const TrialDepthScope&) = delete;
  TrialDepthScope& operator=(const TrialDepthScope&) = delete;
};
}  // namespace detail

}  // namespace latgossip
