#include "rt/dist_machine.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "rt/rank_step.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::rt {

using prog::Clause;
using spmd::ClausePlan;

std::string DistStats::str() const {
  obs::MetricsRegistry reg;
  obs::collect(reg, *this);
  return reg.line();
}

DistMachine::DistMachine(spmd::Program program, gen::BuildOptions opts,
                         CostModel cost, EngineOptions engine,
                         std::shared_ptr<EngineContext> ctx,
                         const std::string& plan_scope)
    : program_(std::move(program)),
      opts_(opts),
      cost_(cost),
      engine_(engine),
      ctx_(ctx ? std::move(ctx) : std::make_shared<EngineContext>()),
      plans_(ctx_, plan_scope, PlanKind::Dist),
      lookup_(*plans_),
      store_(program_.procs) {
  program_.validate();
  if (engine_.threads > 1)
    pool_ = std::make_unique<support::ThreadPool>(engine_.threads);
  if (engine_.trace) {
    tracer_ = ctx_->make_tracer(program_.procs, engine_.trace_capacity);
    plans_->set_tracer(tracer_, tracer_->control_lane());
  }
  message_matrix_.assign(
      static_cast<std::size_t>(program_.procs),
      std::vector<i64>(static_cast<std::size_t>(program_.procs), 0));
  for (const auto& [name, desc] : program_.arrays) store_.declare(desc);
}

void DistMachine::load(const std::string& name,
                       const std::vector<double>& dense) {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(), "DistMachine::load unknown " + name);
  store_.load(it->second, dense);
}

void DistMachine::run() {
  for (const spmd::Step& step : program_.steps) {
    if (const auto* clause = std::get_if<Clause>(&step))
      run_clause(*clause);
    else
      run_redistribute(std::get<spmd::RedistStep>(step));
  }
}

template <typename F>
void DistMachine::for_ranks(i64 n, F&& body) {
  if (engine_.threads == 1) {
    for (i64 r = 0; r < n; ++r) body(r);
    return;
  }
  support::ThreadPool& pool =
      pool_ ? *pool_ : support::ThreadPool::shared();
  pool.parallel_for_ranks(n, body);
}

void add_step(DistStats& stats, const std::vector<RankCounters>& counters,
              const CostModel& cost) {
  double slowest = 0.0;
  i64 halo_bulk = 0, halo_values = 0;
  for (const RankCounters& c : counters) {
    stats.messages += c.sends;
    stats.bulk_messages += c.bulk_sends;
    stats.local_reads += c.local_reads;
    stats.remote_reads += c.remote_reads;
    stats.iterations += c.iterations;
    stats.tests += c.tests;
    halo_bulk += c.halo_bulk;
    halo_values += c.halo_values;
    stats.halo_reads += c.halo_reads;
    slowest = std::max(slowest, c.time(cost));
  }
  // halo_bulk/halo_values are recorded on both endpoints; the aggregate
  // counts each exchange once.
  stats.halo_messages += halo_bulk / 2;
  stats.halo_values += halo_values / 2;
  stats.sim_time += slowest;
  ++stats.steps;
}

std::string format_message_matrix(
    const std::vector<std::vector<i64>>& matrix) {
  std::string out = "messages src\\dst";
  for (std::size_t d = 0; d < matrix.size(); ++d) out += pad_left(cat(d), 8);
  out += "\n";
  for (std::size_t s = 0; s < matrix.size(); ++s) {
    out += pad_left(cat(s), 16);
    for (i64 v : matrix[s]) out += pad_left(cat(v), 8);
    out += "\n";
  }
  return out;
}

void DistMachine::finish_step(const std::vector<RankCounters>& counters) {
  add_step(stats_, counters, cost_);
  last_counters_ = counters;
  if (tracer_) {
    // Publish the cost-model clock and the step's aggregate predictors
    // on the control lane: the calibration fit's raw material.
    i64 iters = 0, tests = 0, transfers = 0, bulk = 0;
    for (const RankCounters& c : counters) {
      iters += c.iterations;
      tests += c.tests;
      transfers += c.sends + c.receives;
      bulk += c.bulk_sends + c.bulk_receives;
    }
    tracer_->set_virtual_time(stats_.sim_time);
    tracer_->record(tracer_->control_lane(), obs::EventKind::StepCounters,
                    stats_.steps - 1, iters, tests, transfers, bulk);
  }
}

// Phase 0 of every clause: every referenced array with a halo gets its
// boundary copies refreshed with pre-clause values — one bulk exchange
// per (owner, neighbour) pair, copied as one contiguous chunk of the
// owner's block. Near-boundary remote reads in phase 2 then stay local
// and read the halo row by slot. `snap` is the copy-in snapshot when the
// clause reads its own target (senders must observe pre-clause values),
// else null.
void DistMachine::refresh_halos(const Clause& clause, const ClausePlan& plan,
                                const std::vector<std::vector<double>>* snap,
                                i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 procs = plan.procs();
  const auto pp = static_cast<std::size_t>(procs * procs);
  for (int r = 0; r < static_cast<int>(clause.refs.size()); ++r) {
    const decomp::ArrayDesc& rd = plan.ref_desc(r);
    if (rd.halo() == 0) continue;
    HaloRows& h = halos_[rd.name()];
    if (h.step == step_id) continue;  // already refreshed via another ref
    h.step = step_id;
    h.rows.resize(static_cast<std::size_t>(procs));
    const bool from_snap = snap && rd.name() == clause.lhs_array;
    // Each rank fills its own halo row; the owner-side halo counters are
    // cross-rank, so they accumulate in per-rank scratch rows and merge
    // after the join (sums are order-independent).
    halo_owner_bulk_.assign(pp, 0);
    halo_owner_values_.assign(pp, 0);
    VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/0);
    for_ranks(procs, [&](i64 p) {
      VCAL_TRACE(tr, p, obs::EventKind::HaloBegin, step_id);
      fill_halo_row(
          rd, p, h.rows[static_cast<std::size_t>(p)],
          step_counters_[static_cast<std::size_t>(p)],
          halo_owner_bulk_.data() + p * procs,
          halo_owner_values_.data() + p * procs,
          [&](i64 owner, i64 local, i64 len) {
            const std::vector<double>& src =
                from_snap ? (*snap)[static_cast<std::size_t>(owner)]
                          : store_.local_row(rd.name(), owner);
            if (local + len > static_cast<i64>(src.size()))
              throw RuntimeFault("local read out of bounds on " + rd.name());
            return src.data() + local;
          });
      VCAL_TRACE(tr, p, obs::EventKind::HaloEnd, step_id);
    });
    VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/0);
    for (std::size_t i = 0; i < pp; ++i) {
      RankCounters& oc = step_counters_[i % static_cast<std::size_t>(procs)];
      oc.halo_bulk += halo_owner_bulk_[i];
      oc.halo_values += halo_owner_values_[i];
    }
  }
}

void DistMachine::run_clause(const Clause& clause) {
  if (clause.ord == prog::Ordering::Seq)
    throw CodegenError(
        "sequential ('•') clauses are not supported on the distributed "
        "target; the paper leaves DOACROSS orderings out of scope");

  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;  // index of the step now executing

  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseBegin, step_id);

  // Plans are pure compile-time data, cached per layout of the arrays
  // the clause touches; the entry also carries the clause's schedule
  // and JIT state for that layout.
  spmd::PlanCache::Entry& entry =
      lookup_.get(clause, program_.arrays, opts_);
  const ClausePlan& plan = entry.plan;
  const i64 procs = plan.procs();

  // JIT dispatch: poll the entry's state once per execution (arming
  // counter, compile status, pointer swap).
  const spmd::JitFns* jfns = nullptr;
  if (engine_.jit)
    jfns = ctx_->poll_jit(entry, clause, engine_, jit_, tr, step_id);

  // Communication-schedule dispatch (inspector–executor): the first
  // execution at a layout inspects the plan for a schedule, in parallel
  // over the ranks, and runs it at once. An element that faults raises
  // its RuntimeFault from the inspector (the lowest faulting rank's),
  // and nothing is stored.
  const bool stored = entry.sched != nullptr;
  if (!stored) {
    Inspector inspector(plan);
    for_ranks(procs, [&](i64 p) {
      inspector.rank(RankSite{p, tr, p, step_id});
    });
    entry.sched = inspector.finish();
    ++comm_.sched_builds;
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedBuild, step_id,
               plans_->schedules());
  }
  const auto& sched = static_cast<const spmd::CommSchedule&>(*entry.sched);

  // Persistent per-step scratch: sized on the first clause, reused by
  // every later one (a scheduled steady state allocates nothing).
  if (static_cast<i64>(step_counters_.size()) != procs) {
    step_counters_.resize(static_cast<std::size_t>(procs));
    step_pcs_.resize(static_cast<std::size_t>(procs));
    rank_rows_.resize(static_cast<std::size_t>(procs));
  }
  for (RankCounters& c : step_counters_) c = RankCounters{};
  for (PathCounters& c : step_pcs_) c = PathCounters{};

  // Copy-in snapshot when the clause reads its own target: senders and
  // local reads must observe pre-clause values.
  const std::vector<std::vector<double>>* snap = nullptr;
  for (const prog::ArrayRef& r : clause.refs)
    if (r.array == clause.lhs_array) {
      store_.copy_into(clause.lhs_array, snap_);
      snap = &snap_;
      break;
    }

  refresh_halos(clause, plan, snap, step_id);

  // Each rank's pre-clause source row (snapshot-aware) and halo row per
  // ref, resolved once so the phase loops read through plain pointers.
  const auto nrefs = clause.refs.size();
  for (i64 p = 0; p < procs; ++p) {
    RankRows& rr = rank_rows_[static_cast<std::size_t>(p)];
    rr.rows.resize(nrefs);
    rr.halo.resize(nrefs);
    for (std::size_t r = 0; r < nrefs; ++r) {
      const std::string& name = clause.refs[r].array;
      rr.rows[r] = (snap && name == clause.lhs_array)
                       ? &(*snap)[static_cast<std::size_t>(p)]
                       : &store_.local_row(name, p);
      auto h = halos_.find(name);
      rr.halo[r] = h == halos_.end()
                       ? nullptr
                       : &h->second.rows[static_cast<std::size_t>(p)];
    }
  }

  run_scheduled(plan, sched, jfns, stored, step_id);

  for (const PathCounters& c : step_pcs_) paths_ += c;
  if (tr)
    for (i64 p = 0; p < procs; ++p) {
      const PathCounters& c = step_pcs_[static_cast<std::size_t>(p)];
      tr->record(p, obs::EventKind::KernelPath, step_id, c.fused, c.generic,
                 c.interp, c.sched);
    }
  finish_step(step_counters_);
  VCAL_TRACE(tr, ctl, obs::EventKind::ClauseEnd, step_id);
}

// The executor half of the inspector–executor split: each source rank
// packs values positionally into the reused (src, dst) buffers and each
// destination satisfies every operand by offset. Counters and the
// message matrix come from the schedule, the halo counters from the
// live refresh. `replay` is true for a stored schedule (a hit), false
// for the one just inspected.
void DistMachine::run_scheduled(const ClausePlan& plan,
                                const spmd::CommSchedule& sched,
                                const spmd::JitFns* jfns,
                                bool replay, i64 step_id) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 procs = sched.procs;
  const std::string& lhs = plan.clause().lhs_array;
  auto site = [&](i64 p) { return RankSite{p, tr, p, step_id}; };

  // Double-buffered reused packed-value storage: one contiguous value
  // vector per (src, dst) pair, row src * procs + dst, parity-flipped
  // per step; clear() keeps capacity.
  std::vector<std::vector<double>>& bufs = comm_bufs_[comm_parity_];
  comm_parity_ ^= 1;
  if (static_cast<i64>(bufs.size()) != procs * procs)
    bufs.resize(static_cast<std::size_t>(procs * procs));

  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/1);
  for_ranks(procs, [&](i64 p) {
    pack_rank(sched, site(p), rank_rows_[static_cast<std::size_t>(p)],
              bufs.data() + p * procs);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/1);
  if (tr)
    for (i64 src = 0; src < procs; ++src)
      for (i64 dst = 0; dst < procs; ++dst) {
        const auto& buf = bufs[static_cast<std::size_t>(src * procs + dst)];
        if (!buf.empty())
          tr->record(dst, obs::EventKind::MsgRecv, step_id, src,
                     static_cast<i64>(buf.size()));
      }

  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierBegin, step_id, /*phase=*/2);
  for_ranks(procs, [&](i64 p) {
    const auto up = static_cast<std::size_t>(p);
    replay_rank(sched, plan, site(p), rank_rows_[up], bufs.data() + p, procs,
                store_.local_row_mut(lhs, p), jfns, step_pcs_[up]);
  });
  VCAL_TRACE(tr, ctl, obs::EventKind::BarrierEnd, step_id, /*phase=*/2);

  if (replay) {
    ++comm_.sched_hits;
    VCAL_TRACE(tr, ctl, obs::EventKind::SchedHit, step_id);
  }
  comm_.packed_values += sched.packed_ops;
  comm_.packed_bytes += sched.packed_ops * static_cast<i64>(sizeof(double));
  comm_.unpacked_values += sched.packed_ops;
  for (i64 s = 0; s < procs; ++s)
    for (i64 d = 0; d < procs; ++d)
      message_matrix_[static_cast<std::size_t>(s)]
                     [static_cast<std::size_t>(d)] +=
          sched.matrix_delta[static_cast<std::size_t>(s * procs + d)];
  for (i64 p = 0; p < procs; ++p) {
    RankCounters& c = step_counters_[static_cast<std::size_t>(p)];
    c = scheduled_counters(sched, p, c);
  }
}

// A redistribution runs the rank-local mover (rank_step.hpp): every rank
// packs the stretches it sends, in ascending dense order, and copies the
// ones it keeps; after the join every rank unpacks its incoming streams.
// All elements migrating between one rank pair travel as one bulk
// message.
void DistMachine::run_redistribute(const spmd::RedistStep& step) {
  obs::Tracer* tr = tracer_;
  const i64 ctl = tr ? tr->control_lane() : 0;
  const i64 step_id = stats_.steps;
  const i64 procs = program_.procs;
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistBegin, step_id);
  const decomp::ArrayDesc& old_desc = program_.arrays.at(step.array);
  auto site = [&](i64 p) { return RankSite{p, tr, p, step_id}; };

  std::vector<std::vector<double>> fresh(static_cast<std::size_t>(procs));
  std::vector<RankCounters> counters(static_cast<std::size_t>(procs));
  // One stream per (src, dst) pair, row src * procs + dst.
  std::vector<std::vector<double>> bufs(
      static_cast<std::size_t>(procs * procs));
  for_ranks(procs, [&](i64 p) {
    const auto up = static_cast<std::size_t>(p);
    redist_pack_rank(old_desc, step.new_desc, site(p),
                     store_.local_row(step.array, p), fresh[up],
                     bufs.data() + p * procs, counters[up],
                     message_matrix_[up].data());
  });
  for_ranks(procs, [&](i64 p) {
    const auto up = static_cast<std::size_t>(p);
    redist_unpack_rank(old_desc, step.new_desc, site(p), bufs.data() + p,
                       procs, fresh[up], counters[up]);
  });
  for (const RankCounters& c : counters) stats_.redist_messages += c.sends;

  store_.replace(step.array, std::move(fresh));
  program_.arrays.insert_or_assign(step.array, step.new_desc);
  // Later clauses look their plans up under the new layout; entries
  // for the old one stay for when the array returns to it.
  const spmd::LayoutId layout = lookup_.relayout(step.new_desc);
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistEpoch, step_id, layout);
  finish_step(counters);
  VCAL_TRACE(tr, ctl, obs::EventKind::RedistEnd, step_id);
}

std::string DistMachine::message_matrix_str() const {
  return format_message_matrix(message_matrix_);
}

std::vector<double> DistMachine::gather(const std::string& name) const {
  auto it = program_.arrays.find(name);
  require(it != program_.arrays.end(),
          "DistMachine::gather unknown " + name);
  return store_.gather(it->second);
}

}  // namespace vcal::rt
