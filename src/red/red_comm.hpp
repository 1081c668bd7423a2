// RedComm: the RedMPI-like redundancy interposition layer (paper Section 3).
//
// One RedComm instance exists per *physical* process; it presents the
// *virtual* world to the application (rank() is the virtual rank, size() the
// virtual world size) and translates every point-to-point call into the
// replica fan-out the paper describes:
//
//   send(dst, ...)  -> one physical send to every live replica of dst's
//                      sphere (all-to-all mode), or one full message to the
//                      paired replica plus hashes to the rest
//                      (msg-plus-hash mode);
//   recv(src, ...)  -> one physical receive from every replica of src's
//                      sphere; the request completes when all copies have
//                      arrived, the copies are compared (voting), and one
//                      payload is surfaced to the application.
//
// Wildcard receives (kAnySource) follow the paper's three-step protocol:
// the sphere's replica 0 posts the physical wildcard receive, determines the
// winning sender sphere, forwards the envelope to its sibling replicas, and
// everyone then posts specific receives for the remaining copies.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <list>
#include <span>

#include "obs/recorder.hpp"
#include "red/replica_map.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "util/flat_map.hpp"
#include "util/pool.hpp"
#include "util/rc.hpp"

namespace redcr::red {

/// Replication protocol mode (paper Section 2, RedMPI description).
enum class Mode {
  kAllToAll,     ///< every sender replica sends the full message to every
                 ///< receiver replica
  kMsgPlusHash,  ///< full message from the paired replica, 8-byte hashes
                 ///< from the others
};

struct RedConfig {
  Mode mode = Mode::kAllToAll;
  /// Compare replica copies on receive; mismatches are counted and, with
  /// three or more copies, outvoted.
  bool vote = true;

  bool operator==(const RedConfig&) const = default;
};

/// Liveness oracle consulted under live failure semantics (rMPI-style
/// degradation: survivors stop exchanging with dead replicas). Absent
/// (nullptr), the layer runs in the paper's bookkeeping mode — every
/// replica is treated as alive and the injector only watches for
/// whole-sphere deaths.
class Liveness {
 public:
  virtual ~Liveness() = default;
  [[nodiscard]] virtual bool is_dead(Rank physical) const = 0;
};

/// Counters for replica-divergence detection (SDC voting).
struct RedStats {
  std::uint64_t messages_compared = 0;
  std::uint64_t mismatches_detected = 0;
  std::uint64_t mismatches_corrected = 0;  ///< majority vote succeeded
  /// Deliveries that surfaced a silently corrupted payload without the vote
  /// observing any divergence (single-copy spheres, or every copy carrying
  /// the same strain): the infection passed the detector.
  std::uint64_t mismatches_undetected = 0;
};

/// Silent-data-corruption policy consulted by the interposition layer.
/// Implemented by failure::SdcMonitor (red/ cannot depend on failure/, so
/// this mirrors the Liveness-oracle pattern). All hooks are synchronous and
/// run inside the engine's event order, so a deterministic implementation
/// keeps the simulation bit-identical across reruns.
class SdcPolicy {
 public:
  /// Verdict of one voted delivery, reported after comparison.
  struct Delivery {
    Rank receiver_physical = -1;
    Rank receiver_virtual = -1;
    Rank sender_virtual = -1;
    /// Strain of the payload surfaced to the application (0 = clean).
    std::uint64_t chosen_strain = 0;
    /// First nonzero strain among the copies (0 = all clean).
    std::uint64_t seen_strain = 0;
    std::size_t copies = 0;  ///< copies compared (full + hash)
    bool mismatch = false;   ///< the vote observed divergent content
    bool corrected = false;  ///< a strict majority outvoted the divergence
    double now = 0.0;        ///< simulated time of the delivery
  };

  virtual ~SdcPolicy() = default;
  /// Called once per application-level send with the sender's physical
  /// rank; an at-rest-infected rank's payload comes back corrupted.
  virtual simmpi::Payload on_send(Rank sender_physical,
                                  simmpi::Payload payload, double now) = 0;
  /// Called once per fan-out, with `strains` zeroed, before its physical
  /// copies go out: sets strains[j] to the strain of an in-flight flip of
  /// copy j; a copy that travels clean keeps 0. `ordinal` is the sender's
  /// deterministic send counter, j the index within this send's live
  /// destination set. One call per send lets the copies' draws run side by
  /// side.
  virtual void on_copies(Rank sender_physical, std::uint64_t ordinal,
                         std::span<std::uint64_t> strains, double now) = 0;
  /// Classification callback after voting: spreads silent infections,
  /// journals detection/correction, and raises the detection alarm.
  virtual void on_delivery(const Delivery& delivery) = 0;
};

class RedComm final : public simmpi::Comm {
 public:
  /// Binds the interposition layer of physical rank `physical_rank` to the
  /// physical world. `map` and `config` must outlive the RedComm.
  RedComm(simmpi::World& world, const ReplicaMap& map, Rank physical_rank,
          const RedConfig& config);

  /// Virtual rank presented to the application.
  [[nodiscard]] Rank rank() const noexcept override { return virtual_rank_; }
  /// Virtual world size presented to the application.
  [[nodiscard]] int size() const noexcept override {
    return static_cast<int>(map_->num_virtual());
  }
  [[nodiscard]] sim::Engine& engine() const noexcept override {
    return endpoint_->engine();
  }

  simmpi::Request isend(Rank dst, int tag, simmpi::Payload payload) override;
  simmpi::Request irecv(Rank src, int tag) override;

  [[nodiscard]] const RedStats& stats() const noexcept { return stats_; }
  [[nodiscard]] unsigned replica_index() const noexcept {
    return replica_index_;
  }
  [[nodiscard]] Rank physical_rank() const noexcept {
    return endpoint_->rank();
  }
  [[nodiscard]] const ReplicaMap& map() const noexcept { return *map_; }

  /// Deterministic corruption adapter: applied to every payload this
  /// physical process sends, before the seeded SDC policy. Kept as the thin
  /// compatibility shim for tests that corrupt a specific replica directly;
  /// production SDC injection goes through set_sdc().
  void set_corruption_hook(std::function<simmpi::Payload(simmpi::Payload)> f) {
    corruption_hook_ = std::move(f);
  }

  /// Attaches the seeded SDC policy (nullptr detaches; must outlive this
  /// RedComm). Drives in-flight copy flips, at-rest state corruption of the
  /// sender, and the post-vote detect/correct/silent classification.
  void set_sdc(SdcPolicy* sdc) { sdc_ = sdc; }

  /// Enables live failure semantics against the given oracle (must outlive
  /// this RedComm). A wildcard receive whose sphere leader dies before
  /// forwarding the envelope fails over: each sibling reruns the instance
  /// under the next live replica. Limitation: combined with coordinated
  /// checkpointing a dead rank cannot join the collective quiesce — use
  /// bookkeeping mode there, as the paper's experiments do.
  void set_liveness(const Liveness* liveness) { liveness_ = liveness; }

  /// Attaches an observability recorder (nullptr detaches). Feeds the
  /// "red.compared" / "red.mismatches_detected" / "red.mismatches_corrected"
  /// counters shared by all RedComms of a job.
  void set_recorder(obs::Recorder* recorder);

  /// Attaches an append-only log of voted-comparison timestamps, shared by
  /// every RedComm of a job (nullptr detaches; not owned). The fast-forward
  /// prototypes read messages_compared as of any simulated instant from it.
  void set_compared_log(std::vector<sim::Time>* log) noexcept {
    compared_log_ = log;
  }

 private:
  /// Tag offsets for the control plane (hash copies, envelope forwarding).
  /// Application and collective tags are < 2^28, so these bands are private.
  static constexpr int kHashTagOffset = 1 << 28;
  static constexpr int kEnvelopeTagOffset = 1 << 29;

  /// True if sender replica `sender_idx` sends the full message (rather
  /// than a hash) to receiver replica `receiver_idx`: the pairing is
  /// receiver_idx mod sender_degree.
  static bool sends_full(unsigned sender_idx, unsigned receiver_idx,
                         unsigned sender_degree, Mode mode) noexcept {
    if (mode == Mode::kAllToAll) return true;
    return sender_idx == receiver_idx % sender_degree;
  }

  /// One in-flight copy-set: the physical copies received so far, the
  /// completion countdown, and the virtual envelope and application request
  /// they complete after comparison/voting. Each sub-receive is posted with
  /// a Sink on this set (copy_arrived), so a physical copy costs no request
  /// and no closure. The sets are owned by the RedComm, in lists with
  /// stable nodes: a set still pending at episode teardown is freed with
  /// the comm, and a finished one is kept for the next post.
  struct CopySet;
  using CopySetList = std::list<CopySet, util::PoolAllocator<CopySet>>;
  struct CopySet {
    /// Copy i of the set; meaningful unless bit i of `aborted` is set.
    std::array<simmpi::Message, ReplicaMap::kMaxDegree> copies{};
    unsigned aborted = 0;  ///< bit i: sub-receive i was aborted (peer died)
    unsigned num_subs = 0;
    std::size_t remaining = 0;
    Rank src_virtual = 0;
    int tag = 0;
    simmpi::Request parent;
    RedComm* comm = nullptr;
    CopySetList::iterator self;  ///< this set's node in comm->copy_sets_
  };

  /// Posts the physical receives for one copy-set from sphere `src_virtual`
  /// and wires them to complete `parent` after comparison/voting.
  void post_copy_set(Rank src_virtual, int tag, simmpi::Request parent);

  /// Driver for the wildcard three-step protocol (runs as a spawned task).
  sim::Task drive_wildcard(int tag, simmpi::Request parent);

  /// Sink of sub-receive `index` of the CopySet at `set`: keeps the copy
  /// (nullptr: aborted) and counts the set down.
  static void copy_arrived(void* set, std::uint32_t index,
                           simmpi::Message* message);

  /// Counts one sub-receive (or the posting guard) of a copy-set down; the
  /// last votes, completes the parent and moves the set to the spare list.
  void count_arrived(CopySetList::iterator it);

  /// Compares/votes the collected copies and surfaces the result.
  void finish_copy_set(const CopySet& set);

  /// Votes over the copies (full payloads + hash copies), fills the parent's
  /// message with the chosen payload under the *virtual* envelope, and
  /// completes it. `copies` holds at most ReplicaMap::kMaxDegree entries.
  void finalize(Rank src_virtual, int tag,
                std::span<const simmpi::Message* const> copies,
                const simmpi::Request& parent);

  simmpi::World* world_;
  const ReplicaMap* map_;
  const RedConfig* config_;
  simmpi::Endpoint* endpoint_;
  Rank virtual_rank_;
  unsigned replica_index_;
  RedStats stats_;
  std::function<simmpi::Payload(simmpi::Payload)> corruption_hook_;
  SdcPolicy* sdc_ = nullptr;
  /// Deterministic per-comm send counter: the in-flight flip coordinates.
  std::uint64_t send_ordinal_ = 0;
  const Liveness* liveness_ = nullptr;
  obs::Counter* compared_counter_ = nullptr;  // cached registry handles
  obs::Counter* detected_counter_ = nullptr;
  obs::Counter* corrected_counter_ = nullptr;
  std::vector<sim::Time>* compared_log_ = nullptr;  // fast-forward prototypes

  [[nodiscard]] bool dead(Rank physical) const {
    return liveness_ != nullptr && liveness_->is_dead(physical);
  }
  /// Per-tag serialization of the leader's wildcard protocol: the physical
  /// ANY_SOURCE receive of instance k+1 may only be posted after instance k
  /// has posted its remaining-copy receives — otherwise instance k+1 could
  /// steal a duplicate copy of instance k's message (see drive_wildcard).
  util::FlatMap64<util::Rc<sim::OneShotEvent>> wildcard_turn_;  // by tag
  /// In-flight copy-sets, and finished ones kept for reuse (a set holds
  /// kMaxDegree messages, so reuse spares constructing and destroying them).
  CopySetList copy_sets_;
  CopySetList spare_sets_;
};

}  // namespace redcr::red
