// The per-(src,dst) bulk message channel of the tagged execution path
// (rt/rank_step.hpp), which both distributed drivers run only for steps
// with an armed fault (rt/fault_plan.hpp; the tests' and the oracle's
// tagged reference arms a ReorderChannel at every step) and for clauses
// the inspector refuses because an element would fault; channels carry
// no recording metadata. DistMachine's ranks share one channel array; the
// proc worker ships its packed outgoing channels over the rings and
// rebuilds each incoming one from the (tag, value) pairs in arrival
// order, so pack()/consume() semantics — and therefore every counter —
// stay bit-identical across backends by construction.
#pragma once

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/math.hpp"

namespace vcal::rt {

// All elements flowing src -> dst in one clause, packed as one bulk
// message: (tag, value) entries appended by the sender in phase 1 and
// consumed by tag in phase 2. Each channel is written only by its source
// rank and consumed only by its destination rank, so the phase loops
// parallelize without locks.
//
// pack() sorts the channel once and receives match by binary search.
// Fault injection perturbs a packed channel in place; a perturbed
// channel loses its sort order and falls back to first-match lookup,
// the way a real receive polls an unordered network.
struct Channel {
  std::vector<std::pair<i64, double>> msgs;
  std::vector<char> taken;
  // Lazy tag -> first-occurrence index for the perturbed (unsorted)
  // fallback, built once on the first fallback consume instead of
  // re-scanning the whole channel per receive.
  std::unordered_map<i64, std::size_t> lazy;
  bool lazy_built = false;
  bool sorted = false;  // binary search valid (packed, unperturbed)
  i64 consumed = 0;

  void push(i64 tag, double value) { msgs.emplace_back(tag, value); }

  // Dedups by tag — a resend of the same (ref, loop tuple) overwrites
  // the earlier value, mirroring keyed-mailbox semantics — then sorts
  // for binary-search matching.
  void pack() {
    std::stable_sort(
        msgs.begin(), msgs.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t w = 0;
    for (std::size_t i = 0; i < msgs.size(); ++i) {
      if (w > 0 && msgs[w - 1].first == msgs[i].first)
        msgs[w - 1] = msgs[i];
      else
        msgs[w++] = msgs[i];
    }
    msgs.resize(w);
    sorted = true;
    taken.assign(msgs.size(), 0);
  }

  // Blocking receive: nullptr when no matching (or an already-consumed)
  // message is in flight.
  const double* consume(i64 tag) {
    std::size_t k = msgs.size();
    if (sorted) {
      auto it = std::lower_bound(
          msgs.begin(), msgs.end(), tag,
          [](const auto& m, i64 t) { return m.first < t; });
      if (it == msgs.end() || it->first != tag) return nullptr;
      k = static_cast<std::size_t>(it - msgs.begin());
    } else {
      // Perturbed channel: index tag -> first occurrence once, then
      // scan forward from it only past taken duplicates — first-match
      // semantics at O(m) total instead of O(m²) per step.
      if (!lazy_built) {
        lazy.clear();
        for (std::size_t i = 0; i < msgs.size(); ++i)
          lazy.try_emplace(msgs[i].first, i);
        lazy_built = true;
      }
      auto it = lazy.find(tag);
      if (it == lazy.end()) return nullptr;
      k = it->second;
      while (k < msgs.size() && (taken[k] || msgs[k].first != tag)) ++k;
      if (k == msgs.size()) return nullptr;
    }
    if (taken[k]) return nullptr;
    taken[k] = 1;
    ++consumed;
    return &msgs[k].second;
  }

  i64 undelivered() const {
    return static_cast<i64>(msgs.size()) - consumed;
  }

  // ---- fault mutators (post-pack; return whether anything changed) ----

  bool drop(i64 i) {
    if (msgs.empty()) return false;
    auto k = static_cast<std::size_t>(
        i % static_cast<i64>(msgs.size()));
    msgs.erase(msgs.begin() + static_cast<std::ptrdiff_t>(k));
    taken.erase(taken.begin() + static_cast<std::ptrdiff_t>(k));
    lazy_built = false;
    return true;
  }

  bool duplicate(i64 i) {
    if (msgs.empty()) return false;
    auto k = static_cast<std::size_t>(
        i % static_cast<i64>(msgs.size()));
    msgs.push_back(msgs[k]);
    taken.push_back(0);
    // The appended copy breaks the sort order; receives fall back to
    // first-match linear scan, so the original is consumed and the copy
    // surfaces in the pairing check.
    sorted = false;
    lazy_built = false;
    return true;
  }

  bool reorder() {
    if (msgs.size() < 2) return false;
    std::reverse(msgs.begin(), msgs.end());
    sorted = false;
    lazy_built = false;
    return true;
  }
};

}  // namespace vcal::rt
