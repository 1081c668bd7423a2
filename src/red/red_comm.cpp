#include "red/red_comm.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/log.hpp"

namespace redcr::red {

using simmpi::kAnySource;
using simmpi::Message;
using simmpi::Payload;
using simmpi::Request;

namespace {

/// Encodes a content hash as an 8-byte data payload (the "hash message" of
/// msg-plus-hash mode).
Payload hash_payload(std::uint64_t hash) {
  return Payload::of({std::bit_cast<double>(hash)});
}

std::uint64_t decode_hash(const Payload& payload) {
  assert(payload.has_data() && payload.values().size() == 1);
  return std::bit_cast<std::uint64_t>(payload.values()[0]);
}

}  // namespace

RedComm::RedComm(simmpi::World& world, const ReplicaMap& map,
                 Rank physical_rank, const RedConfig& config)
    : world_(&world),
      map_(&map),
      config_(&config),
      endpoint_(&world.endpoint(physical_rank)),
      virtual_rank_(map.virtual_of(physical_rank)),
      replica_index_(map.replica_index(physical_rank)) {
  if (world.size() != static_cast<int>(map.num_physical()))
    throw std::invalid_argument(
        "RedComm: physical world size must match the replica map");
}

Request RedComm::isend(Rank dst, int tag, Payload payload) {
  if (dst < 0 || dst >= size())
    throw std::out_of_range("RedComm::isend: virtual rank out of range");
  if (corruption_hook_) payload = corruption_hook_(std::move(payload));
  // At-rest state corruption: an infected sender taints everything it sends
  // (all copies consistently, so sibling replicas stay the divergence
  // signal). Per-copy in-flight flips are applied inside the fan-out loop.
  const std::uint64_t ordinal = send_ordinal_++;
  if (sdc_ != nullptr) {
    payload =
        sdc_->on_send(endpoint_->rank(), std::move(payload), engine().now());
  }

  Request parent = simmpi::make_request();
  // A dead process sends nothing (live failure semantics); completing the
  // request keeps its (doomed) coroutine from wedging mid-send.
  if (dead(endpoint_->rank())) {
    parent->aborted = true;
    complete_request(*parent, engine());
    return parent;
  }

  const auto dst_replicas = map_->replicas(dst);

  // The full/hash pairing is computed over the *live* replica sets so a
  // msg-plus-hash receiver whose designated full-sender died still gets a
  // full copy from a surviving one.
  std::array<Rank, ReplicaMap::kMaxDegree> live_dst{};
  unsigned live_dst_degree = 0;
  for (const Rank q : dst_replicas)
    if (!dead(q)) live_dst[live_dst_degree++] = q;
  if (live_dst_degree == 0) {
    // Destination sphere is gone; the job is about to fail anyway.
    parent->aborted = true;
    complete_request(*parent, engine());
    return parent;
  }
  unsigned my_live_index = 0, my_live_degree = 0;
  for (const Rank q : map_->replicas(virtual_rank_)) {
    if (dead(q)) continue;
    if (q == endpoint_->rank()) my_live_index = my_live_degree;
    ++my_live_degree;
  }

  std::array<std::uint64_t, ReplicaMap::kMaxDegree> strains{};
  if (sdc_ != nullptr) {
    sdc_->on_copies(endpoint_->rank(), ordinal,
                    std::span(strains.data(), live_dst_degree),
                    engine().now());
  }
  // Sends complete in issue order, so the last copy's completion is the
  // fan-out's: it alone completes the application request.
  for (unsigned j = 0; j < live_dst_degree; ++j) {
    Payload copy = payload;
    if (strains[j] != 0) copy = copy.corrupted(strains[j]);
    Request on_sent = j + 1 == live_dst_degree ? parent : Request{};
    if (sends_full(my_live_index, j, my_live_degree, config_->mode)) {
      endpoint_->isend(live_dst[j], tag, std::move(copy), std::move(on_sent));
    } else {
      // The hash message hashes the (possibly corrupted) copy, and carries
      // the copy's strain tag so a detection through a hash-only copy can
      // still chain back to the injection event.
      Payload hp = hash_payload(copy.hash());
      if (copy.tainted()) hp = hp.corrupted(copy.strain());
      endpoint_->isend(live_dst[j], kHashTagOffset + tag, std::move(hp),
                       std::move(on_sent));
    }
  }
  return parent;
}

Request RedComm::irecv(Rank src, int tag) {
  Request parent = simmpi::make_request();
  if (src == kAnySource) {
    // Paper Section 3: wildcard receives need the three-step envelope
    // protocol so all replicas of this sphere agree on the virtual sender.
    engine().spawn(drive_wildcard(tag, parent));
    return parent;
  }
  if (src < 0 || src >= size())
    throw std::out_of_range("RedComm::irecv: virtual rank out of range");
  post_copy_set(src, tag, parent);
  return parent;
}

void RedComm::post_copy_set(Rank src_virtual, int tag, Request parent) {
  // Only expect copies from replicas that are still alive; the pairing of
  // full vs hash copies is over the live set, mirroring isend.
  std::array<Rank, ReplicaMap::kMaxDegree> live_src{};
  unsigned src_degree = 0;
  for (const Rank q : map_->replicas(src_virtual))
    if (!dead(q)) live_src[src_degree++] = q;
  if (src_degree == 0) {
    parent->aborted = true;
    complete_request(*parent, engine());
    return;
  }

  // My pairing slot is my position among my sphere's live replicas — the
  // same view the senders use when choosing full vs hash targets.
  unsigned my_live_index = 0, live_seen = 0;
  for (const Rank q : map_->replicas(virtual_rank_)) {
    if (dead(q)) continue;
    if (q == endpoint_->rank()) my_live_index = live_seen;
    ++live_seen;
  }

  // The comm owns the copy-set; each sub-receive's sink points at it.
  if (spare_sets_.empty()) spare_sets_.emplace_back();
  copy_sets_.splice(copy_sets_.end(), spare_sets_, spare_sets_.begin());
  const auto it = std::prev(copy_sets_.end());
  CopySet& set = *it;
  set.src_virtual = src_virtual;
  set.tag = tag;
  set.parent = std::move(parent);
  set.num_subs = src_degree;
  set.comm = this;
  set.self = it;
  // +1 guard: a sub that matches an unexpected copy completes inside
  // irecv, and the set must not finish (and go back to the spare list)
  // while this frame still posts its other subs.
  set.remaining = src_degree + 1;
  for (unsigned i = 0; i < src_degree; ++i) {
    const bool full = sends_full(i, my_live_index, src_degree, config_->mode);
    endpoint_->irecv(live_src[i], full ? tag : kHashTagOffset + tag,
                     simmpi::Sink{&RedComm::copy_arrived, &set, i});
  }
  count_arrived(it);  // releases the guard
}

void RedComm::copy_arrived(void* set, std::uint32_t index, Message* message) {
  CopySet& s = *static_cast<CopySet*>(set);
  if (message != nullptr) {
    s.copies[index] = std::move(*message);
  } else {
    s.aborted |= 1u << index;
  }
  s.comm->count_arrived(s.self);
}

void RedComm::count_arrived(CopySetList::iterator it) {
  if (--it->remaining != 0) return;
  CopySet& set = *it;
  finish_copy_set(set);
  // Drop what the set holds and keep it for the next post.
  for (unsigned i = 0; i < set.num_subs; ++i) set.copies[i].payload = {};
  set.aborted = 0;
  set.parent.reset();
  spare_sets_.splice(spare_sets_.begin(), copy_sets_, it);
}

sim::Task RedComm::drive_wildcard(int tag, Request parent) {
  const auto my_replicas = map_->replicas(virtual_rank_);
  // Under live semantics the sphere leader is the first *live* replica. A
  // sibling waits for the leader's envelope; if the leader dies first, the
  // envelope receive comes back aborted and the sibling runs the instance
  // again under the next live leader, which may be itself.
  while (true) {
    Rank leader = my_replicas[0];
    for (const Rank q : my_replicas) {
      if (!dead(q)) {
        leader = q;
        break;
      }
    }
    if (endpoint_->rank() == leader) break;
    // Sibling side: learn the envelope from the leader, then post specific
    // receives exactly like a non-wildcard receive.
    const Request envelope =
        endpoint_->irecv(leader, kEnvelopeTagOffset + tag);
    const Message message = co_await wait(envelope);
    if (envelope->aborted) continue;
    post_copy_set(static_cast<Rank>(message.payload.values()[0]), tag,
                  parent);
    co_return;
  }

  // Leader side. Serialize wildcard instances per tag: until the previous
  // instance has posted its remaining-copy receives, our ANY_SOURCE receive
  // could steal the *duplicate* copy of the previous instance's message
  // (every sender replica posts a full copy under the application tag).
  auto my_turn_done = util::Rc<sim::OneShotEvent>::make();
  auto previous_turn = std::exchange(
      wildcard_turn_[static_cast<std::uint64_t>(tag)], my_turn_done);
  if (previous_turn) co_await previous_turn->wait();

  // Step 1: only the sphere leader posts the physical wildcard receive.
  // Hash copies travel in the private tag band, so in msg-plus-hash mode
  // this can only match a full-payload copy.
  Message first = co_await wait(endpoint_->irecv(kAnySource, tag));
  const Rank src_virtual = map_->virtual_of(first.envelope.source);
  // Step 2: forward the envelope (the winning virtual sender) to the live
  // siblings.
  for (const Rank sibling : my_replicas) {
    if (sibling == endpoint_->rank() || dead(sibling)) continue;
    endpoint_->isend(sibling, kEnvelopeTagOffset + tag,
                     Payload::of({static_cast<double>(src_virtual)}));
  }
  // Step 3: post receives for the remaining copies of this message, then
  // release the next wildcard instance — the specific receives are now
  // ahead of its ANY_SOURCE receive in the posting order, so duplicates
  // can no longer be stolen.
  const Rank first_source = first.envelope.source;
  std::vector<Message> copies;
  copies.push_back(std::move(first));
  std::vector<Rank> live_src;
  unsigned my_pos = 0;  // the leader receives the pairing slot of its
                        // live index within its own sphere (0 by choice)
  for (const Rank q : map_->replicas(src_virtual))
    if (!dead(q)) live_src.push_back(q);
  const auto src_degree = static_cast<unsigned>(live_src.size());
  std::vector<Request> subs;
  for (unsigned i = 0; i < src_degree; ++i) {
    if (live_src[i] == first_source) continue;
    const bool full = sends_full(i, my_pos, src_degree, config_->mode);
    subs.push_back(
        endpoint_->irecv(live_src[i], full ? tag : kHashTagOffset + tag));
  }
  my_turn_done->trigger(engine());
  for (auto& sub : subs) {
    Message copy = co_await wait(sub);
    if (!sub->aborted) copies.push_back(std::move(copy));
  }
  std::array<const Message*, ReplicaMap::kMaxDegree> views{};
  for (std::size_t i = 0; i < copies.size(); ++i) views[i] = &copies[i];
  finalize(src_virtual, tag,
           std::span<const Message* const>(views.data(), copies.size()),
           parent);
}

void RedComm::finish_copy_set(const CopySet& set) {
  std::array<const Message*, ReplicaMap::kMaxDegree> copies{};
  std::size_t num_copies = 0;
  for (unsigned i = 0; i < set.num_subs; ++i) {
    if ((set.aborted >> i) & 1u) continue;  // peer died before sending it
    copies[num_copies++] = &set.copies[i];
  }
  if (num_copies == 0) {
    // Every copy aborted: the sender sphere died mid-exchange. The job is
    // failing; complete the parent as aborted so nothing blocks teardown.
    set.parent->aborted = true;
    complete_request(*set.parent, engine());
    return;
  }
  finalize(set.src_virtual, set.tag,
           std::span<const Message* const>(copies.data(), num_copies),
           set.parent);
}

void RedComm::set_recorder(obs::Recorder* recorder) {
  if (recorder == nullptr) {
    compared_counter_ = nullptr;
    detected_counter_ = nullptr;
    corrected_counter_ = nullptr;
    return;
  }
  compared_counter_ = &recorder->metrics().counter("red.compared");
  detected_counter_ =
      &recorder->metrics().counter("red.mismatches_detected");
  corrected_counter_ =
      &recorder->metrics().counter("red.mismatches_corrected");
}

void RedComm::finalize(Rank src_virtual, int tag,
                       std::span<const Message* const> copies,
                       const Request& parent) {
  assert(!copies.empty() && copies.size() <= ReplicaMap::kMaxDegree);
  // Partition into full copies and hash-only copies by tag band; every
  // copy contributes one hash.
  std::array<const Message*, ReplicaMap::kMaxDegree> fulls{};
  std::array<std::uint64_t, ReplicaMap::kMaxDegree> hashes{};
  std::size_t num_fulls = 0;
  const std::size_t num_hashes = copies.size();
  for (std::size_t i = 0; i < num_hashes; ++i) {
    const Message& copy = *copies[i];
    if (copy.envelope.tag >= kHashTagOffset &&
        copy.envelope.tag < kEnvelopeTagOffset) {
      hashes[i] = decode_hash(copy.payload);
    } else {
      fulls[num_fulls++] = &copy;
      hashes[i] = copy.payload.hash();
    }
  }
  assert(num_fulls > 0 && "every copy-set carries at least one full copy");

  const Message* chosen = fulls[0];
  bool mismatch = false;
  bool corrected = false;
  if (config_->vote && num_hashes > 1) {
    ++stats_.messages_compared;
    if (compared_counter_ != nullptr) compared_counter_->add();
    if (compared_log_ != nullptr) compared_log_->push_back(engine().now());
    // Distinct hashes and their counts, kept in ascending hash order so
    // max_element picks the same first majority an ordered map walk would.
    struct Tally {
      std::uint64_t hash = 0;
      unsigned count = 0;
    };
    std::array<Tally, ReplicaMap::kMaxDegree> tallies{};
    std::size_t num_distinct = 0;
    for (std::size_t i = 0; i < num_hashes; ++i) {
      Tally* const end = tallies.data() + num_distinct;
      Tally* const pos = std::lower_bound(
          tallies.data(), end, hashes[i],
          [](const Tally& t, std::uint64_t h) { return t.hash < h; });
      if (pos != end && pos->hash == hashes[i]) {
        ++pos->count;
        continue;
      }
      std::move_backward(pos, end, end + 1);
      *pos = Tally{hashes[i], 1};
      ++num_distinct;
    }
    if (num_distinct > 1) {
      mismatch = true;
      ++stats_.mismatches_detected;
      if (detected_counter_ != nullptr) detected_counter_->add();
      // Majority vote: adopt a full copy carrying the majority content, if
      // both a strict majority and such a copy exist (paper: triple
      // redundancy can vote out the corrupt message).
      const Tally* const majority = std::max_element(
          tallies.data(), tallies.data() + num_distinct,
          [](const Tally& a, const Tally& b) { return a.count < b.count; });
      if (majority->count * 2 > num_hashes) {
        const auto fulls_end = fulls.begin() + num_fulls;
        const auto it =
            std::find_if(fulls.begin(), fulls_end, [&](const Message* m) {
              return m->payload.hash() == majority->hash;
            });
        if (it != fulls_end) {
          chosen = *it;
          corrected = true;
          ++stats_.mismatches_corrected;
          if (corrected_counter_ != nullptr) corrected_counter_->add();
          REDCR_LOG_WARN << "red: replica mismatch outvoted (virtual rank "
                         << virtual_rank_ << " <- " << src_virtual << ", tag "
                         << tag << ", " << num_hashes << " copies)";
        }
      }
    }
  }

  // A tainted payload that survives the vote without any observed
  // divergence passed the detector silently (single-copy spheres, or a
  // consistently infected sender sphere).
  if (chosen->payload.tainted() && !mismatch) ++stats_.mismatches_undetected;

  if (sdc_ != nullptr) {
    std::uint64_t seen = 0;
    for (const Message* copy : copies) {
      if (copy->payload.strain() != 0) {
        seen = copy->payload.strain();
        break;
      }
    }
    if (seen != 0 || mismatch) {
      SdcPolicy::Delivery delivery;
      delivery.receiver_physical = endpoint_->rank();
      delivery.receiver_virtual = virtual_rank_;
      delivery.sender_virtual = src_virtual;
      delivery.chosen_strain = chosen->payload.strain();
      delivery.seen_strain = seen;
      delivery.copies = num_hashes;
      delivery.mismatch = mismatch;
      delivery.corrected = corrected;
      delivery.now = engine().now();
      sdc_->on_delivery(delivery);
    }
  }

  parent->message.envelope =
      simmpi::Envelope{src_virtual, virtual_rank_, tag};
  parent->message.payload = chosen->payload;
  parent->message.seq = chosen->seq;
  complete_request(*parent, engine());
}

}  // namespace redcr::red
