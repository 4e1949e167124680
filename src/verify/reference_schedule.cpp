#include "verify/reference_schedule.hpp"

#include "spmd/kernel.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::verify {

namespace {

using spmd::CommSchedule;
using spmd::RecvPlan;

// Ref r's operand at index idx, resolved for destination rank p and
// noted into cs: a halo slot, a local offset, or the next slot of the
// (owner, p) pack list. False when it lies outside its owner's row.
bool note_operand(const spmd::ClausePlan& plan, int r, i64 p,
                  const std::vector<i64>& idx, CommSchedule& cs,
                  rt::RankCounters& rc) {
  const decomp::ArrayDesc& rd = plan.ref_desc(r);
  const decomp::Location at = rd.locate(idx);
  const i64 src = rd.is_replicated() ? p : at.owner;
  if (src != p && rd.halo() > 0 && rd.in_halo(p, idx)) {
    cs.note_halo(p, r, rd.halo_slot(p, idx[0]));
    ++rc.halo_reads;
    return true;
  }
  if (!in_range(at.local, 0, rd.local_capacity(src) - 1)) return false;
  if (src == p) {
    cs.note_local(p, r, at.local);
    ++rc.local_reads;
    return true;
  }
  std::vector<spmd::PackOp>& list =
      cs.send[static_cast<std::size_t>(src)].to[static_cast<std::size_t>(p)];
  cs.note_remote(p, src, static_cast<i64>(list.size()));
  list.push_back({static_cast<std::int32_t>(r), at.local});
  ++rc.receives;
  ++rc.remote_reads;
  return true;
}

// Rank p's records, false when some element faults. Dense addressing
// notes every operand local at its offset in the dense image and the
// write at its dense slot, and charges only the Modify_p walk, as the
// shared machine's recording pass does.
bool reference_rank(const spmd::ClausePlan& plan, i64 p, Addressing mode,
                    CommSchedule& cs) {
  const spmd::ClauseKernel& kern = plan.kernel();
  const decomp::ArrayDesc& lhs = plan.lhs_desc();
  const int nrefs = cs.nrefs;
  const bool dense = mode == Addressing::Dense;
  rt::RankCounters& rc = cs.counters[static_cast<std::size_t>(p)];
  for (int r = 0; r < nrefs && !dense; ++r)
    if (plan.ref_needs_comm(r)) {
      const gen::EnumStats c = plan.reside_space(p, r).charge();
      rc.iterations += c.loop_iters;
      rc.tests += c.tests;
    }
  bool bad = false;
  std::vector<i64> out_idx, ridx;
  gen::EnumStats es;
  plan.modify_space(p).for_each(
      [&](const std::vector<i64>& vals) {
        if (bad) return;
        spmd::ClauseKernel::subs_into(kern.lhs_subs(), vals.data(), out_idx);
        if (!lhs.in_bounds(out_idx)) {
          bad = true;
          return;
        }
        for (int r = 0; r < nrefs && !bad; ++r) {
          const decomp::ArrayDesc& rd = plan.ref_desc(r);
          spmd::ClauseKernel::subs_into(kern.ref_subs(r), vals.data(), ridx);
          if (!rd.in_bounds(ridx))
            bad = true;
          else if (dense)
            cs.note_local(p, r, rd.dense_linear(ridx));
          else
            bad = !note_operand(plan, r, p, ridx, cs, rc);
        }
        if (bad) return;
        i64 slot;
        if (dense) {
          slot = lhs.dense_linear(out_idx);
        } else {
          slot = lhs.locate(out_idx).local;
          if (!in_range(slot, 0, lhs.local_capacity(p) - 1)) slot = -1;
        }
        cs.note_element(p, slot, vals.data());
      },
      &es);
  rc.iterations += es.loop_iters;
  rc.tests += es.tests;
  return !bad;
}

// A rank's elements in walk order, one record each: its runs expanded.
struct Records {
  std::vector<i64> slot, vals, ids, offs;
};

Records expand(const RecvPlan& rv, int nloops, int nrefs) {
  Records out;
  const auto nl = static_cast<std::size_t>(nloops);
  const auto nr = static_cast<std::size_t>(nrefs);
  for (const spmd::RecvSegment& sg : rv.segs) {
    const auto at = static_cast<std::size_t>(sg.at);
    if (!sg.run) {
      const auto n = static_cast<std::size_t>(sg.n);
      out.slot.insert(out.slot.end(), rv.lhs_slot.begin() + at,
                      rv.lhs_slot.begin() + at + n);
      out.vals.insert(out.vals.end(), rv.vals.begin() + at * nl,
                      rv.vals.begin() + (at + n) * nl);
      out.ids.insert(out.ids.end(), rv.ids.begin() + at * nr,
                     rv.ids.begin() + (at + n) * nr);
      out.offs.insert(out.offs.end(), rv.offs.begin() + at * nr,
                      rv.offs.begin() + (at + n) * nr);
      continue;
    }
    const i64* vals0 = rv.run_vals.data() + at * nl;
    const i64* addr0 = rv.run_addr.data() + at * 2 * nr;
    const i64* stride = addr0 + nr;
    for (i64 k = 0; k < sg.n; ++k) {
      out.slot.push_back(sg.la + k * sg.lstride);
      out.vals.insert(out.vals.end(), vals0, vals0 + nl - 1);
      out.vals.push_back(sg.v0 + k * sg.vstride);
      for (int r = 0; r < nrefs; ++r) {
        out.ids.push_back(r);
        out.offs.push_back(addr0[r] + k * stride[r]);
      }
    }
  }
  return out;
}

std::string counters_str(const rt::RankCounters& c) {
  return cat("sends ", c.sends, ", receives ", c.receives, ", iterations ",
             c.iterations, ", tests ", c.tests, ", local reads ",
             c.local_reads, ", remote reads ", c.remote_reads,
             ", bulk sends ", c.bulk_sends, ", bulk receives ",
             c.bulk_receives, ", halo bulk ", c.halo_bulk, ", halo values ",
             c.halo_values, ", halo reads ", c.halo_reads);
}

// The first index at which two record arrays differ, as text.
std::string first_diff(const char* what, const std::vector<i64>& got,
                       const std::vector<i64>& want) {
  if (got == want) return {};
  if (got.size() != want.size())
    return cat(what, ": ", got.size(), " entries, reference has ",
               want.size());
  std::size_t k = 0;
  while (got[k] == want[k]) ++k;
  return cat(what, "[", k, "] = ", got[k], ", reference has ", want[k]);
}

}  // namespace

std::unique_ptr<CommSchedule> reference_schedule(
    const spmd::ClausePlan& plan, Addressing mode) {
  const i64 procs = plan.procs();
  auto cs = std::make_unique<CommSchedule>();
  cs->init(procs, static_cast<int>(plan.clause().loops.size()),
           static_cast<int>(plan.clause().refs.size()));
  try {
    for (i64 p = 0; p < procs; ++p)
      if (!reference_rank(plan, p, mode, *cs)) return nullptr;
  } catch (const RuntimeFault&) {
    return nullptr;  // a subscript faulted as it evaluated
  }
  for (i64 src = 0; src < procs; ++src)
    for (i64 dst = 0; dst < procs; ++dst) {
      const auto m = static_cast<i64>(cs->send[static_cast<std::size_t>(src)]
                                          .to[static_cast<std::size_t>(dst)]
                                          .size());
      if (m == 0) continue;
      cs->counters[static_cast<std::size_t>(src)].sends += m;
      ++cs->counters[static_cast<std::size_t>(src)].bulk_sends;
      ++cs->counters[static_cast<std::size_t>(dst)].bulk_receives;
      cs->matrix_delta[static_cast<std::size_t>(src * procs + dst)] = m;
      cs->packed_ops += m;
    }
  return cs;
}

std::string schedule_diff(const CommSchedule& got, const CommSchedule& want) {
  if (got.procs != want.procs || got.nloops != want.nloops ||
      got.nrefs != want.nrefs)
    return cat("shape (procs, loops, refs) (", got.procs, ", ", got.nloops,
               ", ", got.nrefs, "), reference has (", want.procs, ", ",
               want.nloops, ", ", want.nrefs, ")");
  for (std::size_t p = 0; p < got.recv.size(); ++p) {
    const RecvPlan& g = got.recv[p];
    const RecvPlan& w = want.recv[p];
    const std::string rank = cat("rank ", p, ": ");
    if (g.n != w.n)
      return cat(rank, g.n, " elements, reference has ", w.n);
    if (g.oob_slot != w.oob_slot)
      return cat(rank, "out-of-row write slot ", g.oob_slot,
                 ", reference has ", w.oob_slot);
    const Records gr = expand(g, got.nloops, got.nrefs);
    const Records wr = expand(w, want.nloops, want.nrefs);
    for (const std::string& d :
         {first_diff("lhs slot", gr.slot, wr.slot),
          first_diff("loop values", gr.vals, wr.vals),
          first_diff("operand bases", gr.ids, wr.ids),
          first_diff("operand offsets", gr.offs, wr.offs)})
      if (!d.empty()) return rank + d;
    for (std::size_t q = 0; q < got.send[p].to.size(); ++q) {
      const std::vector<spmd::PackOp>& gl = got.send[p].to[q];
      const std::vector<spmd::PackOp>& wl = want.send[p].to[q];
      if (gl.size() != wl.size())
        return cat(rank, "packs ", gl.size(), " values for rank ", q,
                   ", reference packs ", wl.size());
      for (std::size_t k = 0; k < gl.size(); ++k)
        if (gl[k].ref != wl[k].ref || gl[k].offset != wl[k].offset)
          return cat(rank, "pack op ", k, " for rank ", q, " reads ref ",
                     gl[k].ref, " at ", gl[k].offset, ", reference ref ",
                     wl[k].ref, " at ", wl[k].offset);
    }
    const std::string gc = counters_str(got.counters[p]);
    const std::string wc = counters_str(want.counters[p]);
    if (gc != wc) return cat(rank, "counters ", gc, "; reference ", wc);
  }
  if (got.matrix_delta != want.matrix_delta)
    return first_diff("message-matrix increments", got.matrix_delta,
                      want.matrix_delta);
  if (got.packed_ops != want.packed_ops)
    return cat("packed values ", got.packed_ops, ", reference has ",
               want.packed_ops);
  return {};
}

}  // namespace vcal::verify
