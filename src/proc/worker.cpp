// Rank worker of the multi-process backend.
//
// The worker runs the tagged path of the SPMD template with tree-walking
// clause evaluation — the same phase structure as DistMachine::run_clause
// (which runs compiled clause kernels), with the in-process channel array
// replaced by the mmap'd rings. The engine's bit-identity invariant
// (every engine configuration produces identical stores, DistStats, and
// message matrices; pinned by the conformance oracle) is what makes this
// sufficient: a worker that reproduces the tagged path's observables
// reproduces every configuration's.
//
// Per clause step, rank p:
//   0. computes its outgoing halo values (push model: the owner
//      enumerates every reader's halo region — the same enumeration the
//      reader performs — and ships the values it owns, so both sides
//      agree on stream order without a request round-trip);
//   1. enumerates Reside_p \ Modify_p and queues one CLAUSE frame per
//      destination with the (tag, value) pairs in arrival order;
//   2. pumps the rings — interleaving partial writes with opportunistic
//      reads so frames larger than a ring never head-of-line deadlock —
//      until everything queued is sent and every expected frame arrived;
//   3. reconstructs each incoming Channel (push + pack, a pure function
//      of arrival order), applies any armed message faults addressed to
//      it, and runs the Modify_p receive/update loop;
//   4. reports its RankCounters, message-matrix row delta, and applied
//      faults in one STEP control frame.
//
// Redistribution steps move only values: every counter is derivable
// from the old/new descriptors, so the launcher recomputes and verifies
// them centrally while the worker ships one REDIST frame per pair.
#include "proc/worker.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "decomp/array_desc.hpp"
#include "lang/translate.hpp"
#include "obs/trace.hpp"
#include "proc/control.hpp"
#include "proc/job.hpp"
#include "proc/ring.hpp"
#include "proc/wire.hpp"
#include "rt/channel.hpp"
#include "rt/cost_model.hpp"
#include "spmd/plan_cache.hpp"
#include "spmd/program.hpp"
#include "support/error.hpp"
#include "support/format.hpp"

namespace vcal::proc {

namespace {

using prog::Clause;
using rt::Channel;
using rt::FaultPlan;
using rt::RankCounters;
using spmd::ClausePlan;

using Clock = std::chrono::steady_clock;

struct InFrame {
  FrameKind kind = FrameKind::Clause;
  i64 step = 0;
  std::vector<Slot> payload;
};

// One peer rank's transport state. sendq/sent reset each step; the raw
// receive buffer and parsed-frame queue carry across steps (a fast peer
// may already be streaming the next step's frames).
struct PeerLink {
  Ring out, in;
  std::vector<Slot> sendq;
  i64 sent = 0;
  std::vector<Slot> raw;
  std::size_t parsed = 0;
  std::deque<InFrame> frames;
  i64 expect = 0;  // frames still owed for the current step
};

int connect_control(const std::string& path, i64 timeout_ms) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  require(fd >= 0, "proc worker: cannot create control socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  require(path.size() < sizeof addr.sun_path,
          "proc worker: control socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) == 0)
      return fd;
    if (Clock::now() > deadline) {
      ::close(fd);
      throw RuntimeFault("proc worker: cannot reach control socket " +
                         path);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

class Worker {
 public:
  Worker(i64 rank, std::string dir, JobSpec job, int ctl)
      : rank_(rank), dir_(std::move(dir)), job_(std::move(job)), ctl_(ctl) {
    program_ = lang::compile(job_.source);
    program_.validate();
    require(program_.procs == job_.procs,
            "proc worker: job processor count disagrees with the program");
    require(in_range(rank_, 0, program_.procs - 1),
            cat("proc worker: rank ", rank_, " out of range for ",
                program_.procs, " processors"));
    procs_ = program_.procs;
    if (job_.engine.trace)
      tracer_ = std::make_unique<obs::Tracer>(1, job_.engine.trace_capacity);

    // Crash hook for the launcher's lifecycle tests: simulate a
    // kill -9'd rank deterministically at a chosen step.
    if (const char* cr = std::getenv("VCAL_PROC_TEST_CRASH_RANK")) {
      crash_rank_ = std::atoll(cr);
      if (const char* cs = std::getenv("VCAL_PROC_TEST_CRASH_STEP"))
        crash_step_ = std::atoll(cs);
    }

    peers_.resize(static_cast<std::size_t>(procs_));
    for (i64 q = 0; q < procs_; ++q) {
      if (q == rank_) continue;
      PeerLink& link = peers_[static_cast<std::size_t>(q)];
      link.out.open(ring_path(dir_, rank_, q));
      link.in.open(ring_path(dir_, q, rank_));
    }

    // Declare local rows and load the inputs, mirroring DistStore
    // restricted to this rank.
    for (const auto& [name, desc] : program_.arrays)
      rows_[name].assign(static_cast<std::size_t>(
                             desc.local_capacity(rank_)),
                         0.0);
    for (const auto& [name, dense] : job_.inputs) load(name, dense);
  }

  void hello() {
    WireWriter w;
    w.put_i64(rank_);
    std::vector<std::uint8_t> echo = encode_options_echo(job_);
    w.put_u32(static_cast<std::uint32_t>(echo.size()));
    w.bytes.insert(w.bytes.end(), echo.begin(), echo.end());
    send_frame(ctl_, MsgType::Hello, w.bytes);
  }

  void wait_go() {
    ControlFrame f;
    require(recv_frame(ctl_, &f) && f.type == MsgType::Go,
            "proc worker: expected GO from the launcher");
  }

  void run() {
    for (const spmd::Step& step : program_.steps) {
      if (rank_ == crash_rank_ && step_ == crash_step_) ::raise(SIGKILL);
      if (const auto* clause = std::get_if<Clause>(&step))
        run_clause(*clause);
      else
        run_redistribute(std::get<spmd::RedistStep>(step));
      ++step_;
    }
  }

  void send_result() {
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(rows_.size()));
    for (const auto& [name, row] : rows_) {
      w.put_str(name);
      w.put_f64s(row);
    }
    w.put_u8(tracer_ ? 1 : 0);
    if (tracer_) {
      const obs::RankTrace& lane = tracer_->lane(0);
      w.put_u32(static_cast<std::uint32_t>(lane.size()));
      lane.for_each([&](const obs::TraceEvent& e) {
        w.put_u8(static_cast<std::uint8_t>(e.kind));
        w.put_i64(e.step);
        w.put_i64(e.wall_ns);
        w.put_f64(e.virt);
        w.put_i64(e.a0);
        w.put_i64(e.a1);
        w.put_i64(e.a2);
        w.put_i64(e.a3);
      });
      w.put_i64(lane.dropped());
    }
    send_frame(ctl_, MsgType::Result, w.bytes);
  }

  void send_error(ErrCode code, const std::string& msg) {
    WireWriter w;
    w.put_u32(static_cast<std::uint32_t>(code));
    w.put_i64(rank_);
    w.put_i64(step_);
    w.put_str(msg);
    send_frame(ctl_, MsgType::Error, w.bytes);
  }

 private:
  // ---- store helpers (DistStore semantics, own rank only) ------------

  void load(const std::string& name, const std::vector<double>& dense) {
    auto it = program_.arrays.find(name);
    require(it != program_.arrays.end(),
            "proc worker: load of unknown array " + name);
    const decomp::ArrayDesc& desc = it->second;
    require(static_cast<i64>(dense.size()) == desc.total(),
            "DistStore::load size mismatch for " + name);
    std::vector<double>& row = rows_[name];
    row.assign(static_cast<std::size_t>(desc.local_capacity(rank_)), 0.0);
    decomp::for_each_index(desc, [&](const std::vector<i64>& idx) {
      if (!desc.is_replicated() && desc.owner(idx) != rank_) return;
      row[static_cast<std::size_t>(desc.local_linear(idx))] =
          dense[static_cast<std::size_t>(desc.dense_linear(idx))];
    });
  }

  // ---- transport -----------------------------------------------------

  void queue_frame(i64 dst, FrameKind kind, const std::vector<Slot>& payload) {
    PeerLink& link = peers_[static_cast<std::size_t>(dst)];
    link.sendq.push_back(frame_header(
        kind, static_cast<std::uint32_t>(payload.size()), step_));
    link.sendq.insert(link.sendq.end(), payload.begin(), payload.end());
  }

  void parse_frames(PeerLink& link, i64 src) {
    for (;;) {
      const std::size_t avail = link.raw.size() - link.parsed;
      if (avail < 1) break;
      FrameKind kind;
      std::uint32_t count;
      i64 fstep;
      if (!parse_frame_header(link.raw[link.parsed], &kind, &count, &fstep))
        throw RuntimeFault(cat("proc ring: corrupt frame header from rank ",
                               src, " on rank ", rank_));
      if (avail < 1 + static_cast<std::size_t>(count)) break;
      InFrame f;
      f.kind = kind;
      f.step = fstep;
      f.payload.assign(
          link.raw.begin() + static_cast<std::ptrdiff_t>(link.parsed + 1),
          link.raw.begin() +
              static_cast<std::ptrdiff_t>(link.parsed + 1 + count));
      link.frames.push_back(std::move(f));
      link.parsed += 1 + count;
    }
    if (link.parsed > 4096) {
      link.raw.erase(link.raw.begin(),
                     link.raw.begin() +
                         static_cast<std::ptrdiff_t>(link.parsed));
      link.parsed = 0;
    }
  }

  // Drives every ring until this step's queued frames are fully written
  // and the expected incoming frames have fully arrived. Writes and
  // reads interleave so a frame larger than the ring drains in chunks;
  // every ring keeps being read even while this rank still has data to
  // push, so no head-of-line cycle can wedge the step.
  void pump() {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(job_.timeout_ms);
    Slot scratch[256];
    int idle = 0;
    for (;;) {
      bool progress = false;
      bool done = true;
      for (i64 q = 0; q < procs_; ++q) {
        if (q == rank_) continue;
        PeerLink& link = peers_[static_cast<std::size_t>(q)];
        const i64 pending = static_cast<i64>(link.sendq.size()) - link.sent;
        if (pending > 0) {
          i64 wrote = link.out.try_write(link.sendq.data() + link.sent,
                                         pending);
          link.sent += wrote;
          if (wrote > 0) progress = true;
          if (link.sent < static_cast<i64>(link.sendq.size())) done = false;
        }
        i64 got = link.in.try_read(scratch, 256);
        if (got > 0) {
          progress = true;
          link.raw.insert(link.raw.end(), scratch, scratch + got);
          parse_frames(link, q);
        }
        if (static_cast<i64>(link.frames.size()) < link.expect)
          done = false;
      }
      if (done) return;
      if (progress) {
        idle = 0;
        continue;
      }
      if (Clock::now() > deadline)
        throw RuntimeFault(
            cat("proc transport timed out on rank ", rank_, " at step ",
                step_, " after ", job_.timeout_ms,
                " ms waiting on peers"));
      // Spin briefly, then yield, then sleep: latency for the common
      // case, no busy-burn while a slow peer computes.
      ++idle;
      if (idle > 64) std::this_thread::yield();
      if (idle > 512)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }

  InFrame take_frame(i64 src, FrameKind kind) {
    PeerLink& link = peers_[static_cast<std::size_t>(src)];
    require(!link.frames.empty(),
            "proc worker: frame queue underflow (protocol bug)");
    InFrame f = std::move(link.frames.front());
    link.frames.pop_front();
    if (f.kind != kind || f.step != step_)
      throw RuntimeFault(cat(
          "proc ring: protocol violation on rank ", rank_, ": expected ",
          static_cast<int>(kind), " for step ", step_, " from rank ", src,
          ", got ", static_cast<int>(f.kind), " for step ", f.step));
    return f;
  }

  void begin_step() {
    for (i64 q = 0; q < procs_; ++q) {
      PeerLink& link = peers_[static_cast<std::size_t>(q)];
      link.sendq.clear();
      link.sent = 0;
      link.expect = 0;
    }
  }

  void send_step(const RankCounters& rc, const std::vector<i64>& matrix_row,
                 i64 faults_delta) {
    WireWriter w;
    w.put_i64(step_);
    put_rank_counters(w, rc);
    w.put_u32(static_cast<std::uint32_t>(matrix_row.size()));
    for (i64 v : matrix_row) w.put_i64(v);
    w.put_i64(faults_delta);
    send_frame(ctl_, MsgType::Step, w.bytes);
  }

  // ---- clause steps --------------------------------------------------

  const ClausePlan& plan_for(const Clause& clause) {
    return lookup_.get(clause, program_.arrays, job_.build).plan;
  }

  void run_clause(const Clause& clause) {
    if (clause.ord == prog::Ordering::Seq)
      throw CodegenError(
          "sequential ('•') clauses are not supported on the distributed "
          "target; the paper leaves DOACROSS orderings out of scope");

    obs::Tracer* tr = tracer_.get();
    const i64 p = rank_;
    begin_step();

    std::vector<const FaultPlan*> active_faults;
    for (const FaultPlan& f : job_.faults)
      if (f.step == step_ && f.kind != FaultPlan::Kind::None)
        active_faults.push_back(&f);

    const ClausePlan& plan = plan_for(clause);
    const decomp::ArrayDesc& lhs = plan.lhs_desc();
    const int nrefs = static_cast<int>(clause.refs.size());

    // Copy-in snapshot of this rank's row when the clause reads its own
    // target: senders and local reads must observe pre-clause values.
    bool lhs_read = false;
    for (const prog::ArrayRef& r : clause.refs)
      if (r.array == clause.lhs_array) lhs_read = true;
    std::optional<std::vector<double>> snap;
    if (lhs_read) snap = rows_.at(clause.lhs_array);

    auto ref_row = [&](int r) -> const std::vector<double>& {
      const std::string& name =
          clause.refs[static_cast<std::size_t>(r)].array;
      if (snap && name == clause.lhs_array) return *snap;
      return rows_.at(name);
    };
    auto read_row = [&](const std::vector<double>& row, i64 local,
                        int r) -> double {
      if (!in_range(local, 0, static_cast<i64>(row.size()) - 1))
        throw RuntimeFault(
            "local read out of bounds on " +
            clause.refs[static_cast<std::size_t>(r)].array);
      return row[static_cast<std::size_t>(local)];
    };

    RankCounters rc;
    std::vector<i64> matrix_row(static_cast<std::size_t>(procs_), 0);

    // ---- Phase 0: halo exchange (push model) -------------------------
    // halo_cache[name][g] caches this rank's boundary copies. needs_
    // records, in enumeration order, which stream each remote value
    // arrives on; halo_out collects what this rank owes each reader.
    VCAL_TRACE(tr, 0, obs::EventKind::HaloBegin, step_);
    std::map<std::string, std::map<i64, double>> halo_cache;
    struct Need {
      const std::string* name;
      i64 g;
      i64 src;
    };
    std::vector<Need> needs;
    std::vector<std::vector<Slot>> halo_out(
        static_cast<std::size_t>(procs_));
    bool clause_has_halo = false;
    std::set<std::string> halo_done;
    for (int r = 0; r < nrefs; ++r) {
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      if (rd.halo() == 0 || halo_done.count(rd.name())) continue;
      halo_done.insert(rd.name());
      clause_has_halo = true;
      halo_cache[rd.name()];  // refreshed this clause, even if empty
      auto own_value = [&](i64 g) {
        const std::string& name =
            clause.refs[static_cast<std::size_t>(r)].array;
        const std::vector<double>& row =
            (snap && name == clause.lhs_array) ? *snap : rows_.at(name);
        i64 local = rd.local_linear({g});
        if (!in_range(local, 0, static_cast<i64>(row.size()) - 1))
          throw RuntimeFault("local read out of bounds on " + name);
        return row[static_cast<std::size_t>(local)];
      };
      // The same (reader, side, g) enumeration the simulator's
      // refresh_halos performs, replayed for every reader: this rank
      // takes the reader role when q == p (counting its reader-side
      // bulk/value increments and recording what it must consume) and
      // the owner role when owner == p (counting the owner-side merged
      // increments and shipping the value).
      for (i64 q = 0; q < procs_; ++q) {
        for (int side : {-1, 1}) {
          auto [hlo, hhi] = rd.halo_range(q, side);
          if (hlo > hhi) continue;
          i64 prev_owner = -1;
          for (i64 g = hlo; g <= hhi; ++g) {
            i64 owner = rd.owner({g});
            const bool transition = owner != prev_owner;
            prev_owner = owner;
            if (owner == p) {
              if (transition) ++rc.halo_bulk;
              ++rc.halo_values;
            }
            if (q == p) {
              if (transition) ++rc.halo_bulk;
              ++rc.halo_values;
              if (owner == p)
                halo_cache[rd.name()][g] = own_value(g);
              else
                needs.push_back(Need{&rd.name(), g, owner});
            } else if (owner == p) {
              halo_out[static_cast<std::size_t>(q)].push_back(
                  value_slot(own_value(g)));
            }
          }
        }
      }
    }

    // ---- Phase 1: non-blocking sends (Reside_p \ Modify_p) -----------
    VCAL_TRACE(tr, 0, obs::EventKind::SendBegin, step_);
    auto halo_covers = [&](const decomp::ArrayDesc& rd, i64 rank,
                           const std::vector<i64>& idx) {
      return rd.halo() > 0 && halo_done.count(rd.name()) &&
             rd.in_halo(rank, idx);
    };
    std::vector<std::vector<std::pair<i64, double>>> out_msgs(
        static_cast<std::size_t>(procs_));
    std::vector<i64> ridx, out_idx;
    for (int r = 0; r < nrefs; ++r) {
      if (!plan.ref_needs_comm(r)) continue;  // replicated: always local
      gen::EnumStats es;
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      const std::vector<double>& row = ref_row(r);
      const spmd::IterationSpace& space = plan.reside_space(p, r);
      space.for_each(
          [&](const std::vector<i64>& vals) {
            plan.ref_index_into(r, vals, ridx);
            if (!rd.in_bounds(ridx))
              throw RuntimeFault(
                  "read out of bounds on " +
                  clause.refs[static_cast<std::size_t>(r)].array);
            i64 local = rd.local_linear(ridx);
            double value = read_row(row, local, r);
            i64 tag = plan.message_tag(r, vals);
            if (lhs.is_replicated()) {
              for (i64 dst = 0; dst < procs_; ++dst) {
                if (dst == p) continue;
                if (halo_covers(rd, dst, ridx)) continue;
                out_msgs[static_cast<std::size_t>(dst)].emplace_back(tag,
                                                                     value);
                ++rc.sends;
                ++matrix_row[static_cast<std::size_t>(dst)];
              }
            } else {
              plan.lhs_index_into(vals, out_idx);
              if (!lhs.in_bounds(out_idx)) return;
              i64 dst = lhs.owner(out_idx);
              if (dst == p) return;
              if (halo_covers(rd, dst, ridx)) return;
              out_msgs[static_cast<std::size_t>(dst)].emplace_back(tag,
                                                                   value);
              ++rc.sends;
              ++matrix_row[static_cast<std::size_t>(dst)];
            }
          },
          &es);
      rc.iterations += es.loop_iters;
      rc.tests += es.tests;
    }
    for (i64 dst = 0; dst < procs_; ++dst) {
      if (dst == p) continue;
      if (!out_msgs[static_cast<std::size_t>(dst)].empty())
        ++rc.bulk_sends;
    }
    // One CLAUSE frame per destination — sent even when empty, so a
    // missing message manifests exactly as in the simulator (an absent
    // tag in a delivered channel), never as a transport hang.
    for (i64 dst = 0; dst < procs_; ++dst) {
      if (dst == p) continue;
      if (clause_has_halo)
        queue_frame(dst, FrameKind::Halo,
                    halo_out[static_cast<std::size_t>(dst)]);
      std::vector<Slot> payload;
      payload.reserve(out_msgs[static_cast<std::size_t>(dst)].size());
      for (const auto& [tag, value] : out_msgs[static_cast<std::size_t>(dst)])
        payload.push_back(clause_slot(tag, value));
      if (!payload.empty())
        VCAL_TRACE(tr, 0, obs::EventKind::MsgSend, step_, dst,
                   static_cast<i64>(payload.size()));
      queue_frame(dst, FrameKind::Clause, payload);
      peers_[static_cast<std::size_t>(dst)].expect =
          clause_has_halo ? 2 : 1;
    }
    VCAL_TRACE(tr, 0, obs::EventKind::SendEnd, step_);

    pump();

    // Fill the halo cache from the per-source streams (arrival order ==
    // the shared enumeration order restricted to each owner).
    std::vector<InFrame> halo_in(static_cast<std::size_t>(procs_));
    if (clause_has_halo)
      for (i64 src = 0; src < procs_; ++src) {
        if (src == p) continue;
        halo_in[static_cast<std::size_t>(src)] =
            take_frame(src, FrameKind::Halo);
      }
    std::vector<std::size_t> cursor(static_cast<std::size_t>(procs_), 0);
    for (const Need& need : needs) {
      const InFrame& f = halo_in[static_cast<std::size_t>(need.src)];
      std::size_t& c = cursor[static_cast<std::size_t>(need.src)];
      require(c < f.payload.size(),
              "proc worker: halo stream underflow (protocol bug)");
      halo_cache[*need.name][need.g] = slot_value(f.payload[c++]);
    }
    VCAL_TRACE(tr, 0, obs::EventKind::HaloEnd, step_);

    // Reconstruct the incoming channels: push in arrival order + pack()
    // reproduces the simulator's packed channel state bit-for-bit.
    std::vector<Channel> in_ch(static_cast<std::size_t>(procs_));
    for (i64 src = 0; src < procs_; ++src) {
      Channel& ch = in_ch[static_cast<std::size_t>(src)];
      if (src == p) continue;
      InFrame f = take_frame(src, FrameKind::Clause);
      for (const Slot& s : f.payload)
        ch.push(slot_tag(s), slot_value(s));
      ch.pack();
    }
    // Armed message faults addressed to this rank perturb the packed
    // channels, in injection order — the simulator's serial fault loop
    // restricted to dst == p.
    i64 faults_delta = 0;
    for (const FaultPlan* f : active_faults) {
      if (f->dst != p) continue;
      if (!in_range(f->src, 0, procs_ - 1) ||
          !in_range(f->dst, 0, procs_ - 1))
        continue;
      Channel& ch = in_ch[static_cast<std::size_t>(f->src)];
      bool applied = false;
      switch (f->kind) {
        case FaultPlan::Kind::DropMessage: applied = ch.drop(f->index); break;
        case FaultPlan::Kind::DuplicateMessage:
          applied = ch.duplicate(f->index);
          break;
        case FaultPlan::Kind::ReorderChannel: applied = ch.reorder(); break;
        default: break;
      }
      if (applied) ++faults_delta;
    }
    // Receiver-side bulk accounting, after faults (a drop can empty a
    // channel) — the simulator's ordering.
    for (i64 src = 0; src < procs_; ++src)
      if (!in_ch[static_cast<std::size_t>(src)].msgs.empty()) {
        ++rc.bulk_receives;
        VCAL_TRACE(tr, 0, obs::EventKind::MsgRecv, step_, src,
                   static_cast<i64>(
                       in_ch[static_cast<std::size_t>(src)].msgs.size()));
      }

    // ---- Phase 2: receive and update (Modify_p) ----------------------
    VCAL_TRACE(tr, 0, obs::EventKind::ClauseBegin, step_);
    std::vector<double> ref_values(clause.refs.size());
    std::vector<const std::vector<double>*> rows(
        static_cast<std::size_t>(nrefs));
    for (int r = 0; r < nrefs; ++r)
      rows[static_cast<std::size_t>(r)] = &ref_row(r);
    std::vector<double>& out_row = rows_.at(clause.lhs_array);
    gen::EnumStats es;
    const spmd::IterationSpace& space = plan.modify_space(p);
    space.for_each(
        [&](const std::vector<i64>& vals) {
          plan.lhs_index_into(vals, out_idx);
          if (!lhs.in_bounds(out_idx))
            throw RuntimeFault("write out of bounds on " +
                               clause.lhs_array);
          for (int r = 0; r < nrefs; ++r) {
            const decomp::ArrayDesc& rd = plan.ref_desc(r);
            plan.ref_index_into(r, vals, ridx);
            if (!rd.in_bounds(ridx))
              throw RuntimeFault(
                  "read out of bounds on " +
                  clause.refs[static_cast<std::size_t>(r)].array);
            const std::vector<double>& row =
                *rows[static_cast<std::size_t>(r)];
            if (rd.is_replicated()) {
              ref_values[static_cast<std::size_t>(r)] =
                  read_row(row, rd.local_linear(ridx), r);
              ++rc.local_reads;
              continue;
            }
            i64 src = rd.owner(ridx);
            if (src == p) {
              ref_values[static_cast<std::size_t>(r)] =
                  read_row(row, rd.local_linear(ridx), r);
              ++rc.local_reads;
            } else if (halo_covers(rd, p, ridx)) {
              const auto& cache = halo_cache.at(rd.name());
              auto hit = cache.find(ridx[0]);
              require(hit != cache.end(),
                      "halo cache missing a covered element");
              ref_values[static_cast<std::size_t>(r)] = hit->second;
              ++rc.halo_reads;
            } else {
              i64 tag = plan.message_tag(r, vals);
              Channel& ch = in_ch[static_cast<std::size_t>(src)];
              const double* value = ch.consume(tag);
              if (value == nullptr) {
                std::string elem =
                    clause.refs[static_cast<std::size_t>(r)].array + "[";
                for (std::size_t d = 0; d < ridx.size(); ++d)
                  elem += cat(d ? ", " : "", ridx[d]);
                elem += "]";
                std::string diag = cat(
                    "deadlock: rank ", p,
                    " blocked on pending receive of ", elem, " (tag ", tag,
                    ") from rank ", src,
                    ", which never sent it — inconsistent schedules or a "
                    "lost message");
                if (tr) {
                  diag += cat("; last traced event on rank ", p, ": ",
                              tr->last_event_str(0));
                  tr->record(0, obs::EventKind::RecvWait, step_, src, tag);
                }
                throw DeadlockError(diag);
              }
              ref_values[static_cast<std::size_t>(r)] = *value;
              ++rc.receives;
              ++rc.remote_reads;
            }
          }
          if (clause.guard && !clause.guard->holds(ref_values, vals))
            return;
          double value = prog::eval(clause.rhs, ref_values, vals);
          i64 slot = lhs.local_linear(out_idx);
          if (!in_range(slot, 0, static_cast<i64>(out_row.size()) - 1))
            throw RuntimeFault("local write out of bounds on " +
                               clause.lhs_array);
          out_row[static_cast<std::size_t>(slot)] = value;
        },
        &es);
    rc.iterations += es.loop_iters;
    rc.tests += es.tests;
    VCAL_TRACE(tr, 0, obs::EventKind::ClauseEnd, step_);

    // Message-pairing invariant for this rank's incoming traffic.
    i64 leftover = 0;
    for (i64 src = 0; src < procs_; ++src)
      leftover += in_ch[static_cast<std::size_t>(src)].undelivered();
    if (leftover > 0)
      throw RuntimeFault(cat("rank ", p, " finished the clause with ",
                             leftover, " undelivered messages"));

    send_step(rc, matrix_row, faults_delta);
  }

  // ---- redistribution steps ------------------------------------------

  void run_redistribute(const spmd::RedistStep& step) {
    obs::Tracer* tr = tracer_.get();
    const i64 p = rank_;
    begin_step();
    VCAL_TRACE(tr, 0, obs::EventKind::RedistBegin, step_);
    const decomp::ArrayDesc& old_desc = program_.arrays.at(step.array);
    const decomp::ArrayDesc& new_desc = step.new_desc;
    const std::vector<double>& old_row = rows_.at(step.array);
    std::vector<double> fresh(
        static_cast<std::size_t>(new_desc.local_capacity(p)), 0.0);

    RankCounters rc;
    std::vector<i64> matrix_row(static_cast<std::size_t>(procs_), 0);
    std::vector<std::vector<Slot>> outgoing(
        static_cast<std::size_t>(procs_));
    std::vector<i64> expect_in(static_cast<std::size_t>(procs_), 0);
    auto read_old = [&](const std::vector<i64>& idx) {
      i64 local = old_desc.local_linear(idx);
      if (!in_range(local, 0, static_cast<i64>(old_row.size()) - 1))
        throw RuntimeFault("local read out of bounds on " + step.array);
      return old_row[static_cast<std::size_t>(local)];
    };
    decomp::for_each_index(old_desc, [&](const std::vector<i64>& idx) {
      i64 src = old_desc.owner(idx);
      i64 dst = new_desc.owner(idx);
      if (src == p) ++rc.iterations;
      if (src != dst) {
        if (src == p) {
          ++rc.sends;
          ++matrix_row[static_cast<std::size_t>(dst)];
          outgoing[static_cast<std::size_t>(dst)].push_back(
              value_slot(read_old(idx)));
        }
        if (dst == p) {
          ++rc.receives;
          ++expect_in[static_cast<std::size_t>(src)];
        }
      } else if (src == p) {
        fresh[static_cast<std::size_t>(new_desc.local_linear(idx))] =
            read_old(idx);
      }
    });
    for (i64 q = 0; q < procs_; ++q) {
      if (q == p) continue;
      if (!outgoing[static_cast<std::size_t>(q)].empty()) ++rc.bulk_sends;
      if (expect_in[static_cast<std::size_t>(q)] > 0) ++rc.bulk_receives;
      queue_frame(q, FrameKind::Redist,
                  outgoing[static_cast<std::size_t>(q)]);
      peers_[static_cast<std::size_t>(q)].expect = 1;
    }

    pump();

    std::vector<InFrame> incoming(static_cast<std::size_t>(procs_));
    for (i64 src = 0; src < procs_; ++src) {
      if (src == p) continue;
      incoming[static_cast<std::size_t>(src)] =
          take_frame(src, FrameKind::Redist);
      require(static_cast<i64>(
                  incoming[static_cast<std::size_t>(src)].payload.size()) ==
                  expect_in[static_cast<std::size_t>(src)],
              "proc worker: redistribution stream length mismatch");
    }
    std::vector<std::size_t> cursor(static_cast<std::size_t>(procs_), 0);
    decomp::for_each_index(old_desc, [&](const std::vector<i64>& idx) {
      i64 src = old_desc.owner(idx);
      i64 dst = new_desc.owner(idx);
      if (dst != p || src == dst) return;
      std::size_t& c = cursor[static_cast<std::size_t>(src)];
      fresh[static_cast<std::size_t>(new_desc.local_linear(idx))] =
          slot_value(incoming[static_cast<std::size_t>(src)].payload[c++]);
    });

    rows_.at(step.array) = std::move(fresh);
    program_.arrays.insert_or_assign(step.array, new_desc);
    lookup_.relayout(new_desc);
    VCAL_TRACE(tr, 0, obs::EventKind::RedistEnd, step_);
    send_step(rc, matrix_row, 0);
  }

  i64 rank_ = 0;
  i64 procs_ = 0;
  std::string dir_;
  JobSpec job_;
  spmd::Program program_;
  std::map<std::string, std::vector<double>> rows_;
  spmd::PlanCache cache_;
  spmd::PlanLookup lookup_{cache_};
  std::vector<PeerLink> peers_;
  std::unique_ptr<obs::Tracer> tracer_;
  int ctl_ = -1;
  i64 step_ = 0;
  i64 crash_rank_ = -1;
  i64 crash_step_ = 0;
};

}  // namespace

int worker_main(i64 rank, const std::string& channel_dir) {
  ::signal(SIGPIPE, SIG_IGN);
  int ctl = -1;
  try {
    JobSpec job = load_job(job_path(channel_dir));
    ctl = connect_control(control_socket_path(channel_dir),
                          job.timeout_ms);
    Worker w(rank, channel_dir, std::move(job), ctl);
    w.hello();
    w.wait_go();
    try {
      w.run();
      w.send_result();
      send_frame(ctl, MsgType::Done, {});
    } catch (const DeadlockError& e) {
      w.send_error(ErrCode::Deadlock, e.what());
    } catch (const CodegenError& e) {
      w.send_error(ErrCode::Codegen, e.what());
    } catch (const SemanticError& e) {
      w.send_error(ErrCode::Semantic, e.what());
    } catch (const InternalError& e) {
      w.send_error(ErrCode::Internal, e.what());
    } catch (const RuntimeFault& e) {
      w.send_error(ErrCode::Runtime, e.what());
    } catch (const std::exception& e) {
      w.send_error(ErrCode::Other, e.what());
    }
    ::close(ctl);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vcalc worker rank %lld: %s\n",
                 static_cast<long long>(rank), e.what());
    if (ctl >= 0) ::close(ctl);
    return 4;
  }
}

}  // namespace vcal::proc
