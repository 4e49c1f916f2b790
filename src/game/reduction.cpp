#include "game/reduction.h"

#include <stdexcept>
#include <vector>

#include "core/push_pull.h"
#include "core/rr_broadcast.h"
#include "obs/recorder.h"
#include "sim/dispatch.h"

namespace latgossip {
namespace {

/// Collects cross-edge activations and plays them as game rounds.
class GameFeeder {
 public:
  GameFeeder(const GuessingGadget& gadget, GuessingGame& game)
      : gadget_(&gadget), game_(&game) {}

  void on_activation(EdgeId e, Round r, ReductionResult& result) {
    if (!gadget_->is_cross_edge(e)) return;
    flush_if_new_round(r, result);
    pending_.push_back(gadget_->cross_pair(e));
    ++result.cross_activations;
  }

  void finish(Round final_round, ReductionResult& result) {
    flush_if_new_round(final_round + 1, result);
  }

 private:
  void flush_if_new_round(Round r, ReductionResult& result) {
    if (r == current_round_) return;
    if (!pending_.empty() && !game_->solved()) {
      game_->submit_round(pending_);
      if (game_->solved() && !result.game_solved_round)
        result.game_solved_round = current_round_;
    }
    pending_.clear();
    current_round_ = r;
  }

  const GuessingGadget* gadget_;
  GuessingGame* game_;
  std::vector<GuessPair> pending_;
  Round current_round_ = 0;
};

template <typename Proto>
ReductionResult drive(const GuessingGadget& gadget, Proto& proto,
                      Round max_rounds) {
  GuessingGame game(gadget.m, gadget.target);
  ReductionResult result;
  GameFeeder feeder(gadget, game);
  EventRecorder recorder;
  SimOptions opts;
  opts.max_rounds = max_rounds;
  opts.recorder = &recorder;
  result.sim = dispatch_gossip(gadget.graph, proto, opts);
  // The game only watches the run, so replaying the recorded
  // activations afterwards plays exactly the rounds it would have seen
  // live.
  for (const Event& e : recorder.events())
    if (e.kind() == EventKind::kActivation)
      feeder.on_activation(e.edge(), e.round(), result);
  feeder.finish(result.sim.rounds, result);
  result.broadcast_completed = result.sim.completed;
  return result;
}

}  // namespace

ReductionResult run_gadget_reduction(const GuessingGadget& gadget,
                                     ReductionProtocol protocol, Rng rng,
                                     Round max_rounds) {
  const std::size_t n = gadget.graph.num_nodes();
  NetworkView view(gadget.graph, /*latencies_known=*/false);
  switch (protocol) {
    case ReductionProtocol::kPushPull: {
      PushPullGossip proto(view, GossipGoal::kLocalBroadcast, 0,
                           own_id_rumors(n), rng);
      return drive(gadget, proto, max_rounds);
    }
    case ReductionProtocol::kFlooding: {
      PushPullGossip proto(view, GossipGoal::kLocalBroadcast, 0,
                           own_id_rumors(n), Rng{}, ContactRule::kRoundRobin);
      return drive(gadget, proto, max_rounds);
    }
  }
  throw std::invalid_argument("unknown reduction protocol");
}

}  // namespace latgossip
