// Rank worker of the multi-process backend.
//
// The worker runs DistMachine's rank step (rt/rank_step.hpp) for its own
// rank: the same halo fill, the same choice between the scheduled and
// tagged paths, and the same rank-local phase functions, with the
// simulator's shared buffers replaced by frames over the mmap'd rings.
// What remains here is transport, the rank's store, and control. The
// workers run bytecode kernels only; the JIT stays in-process.
//
// Per clause step, rank p:
//   0. collects, for every reader, the halo values it owns, in the chunk
//      order both ends enumerate (rt::for_each_halo_chunk);
//   1. on a clean step, packs its values in SendPlan order
//      (rt::pack_rank) from the schedule it inspected at this layout —
//      every worker inspects every rank, so all agree on the path and on
//      each buffer's length; otherwise (an armed fault, a refused clause)
//      enumerates Reside_p \ Modify_p into sorted (tag, value) channels
//      (rt::send_rank). One HALO frame
//      (when the clause reads a halo'd array) and one CLAUSE frame go to
//      every peer, even when empty;
//   2. pumps the rings — interleaving partial writes with opportunistic
//      reads so frames larger than a ring never head-of-line deadlock —
//      until everything queued is sent and every expected frame arrived;
//   3. fills its halo rows (rt::fill_halo_row), then replays the schedule
//      by offset (rt::replay_rank), or rebuilds each incoming channel
//      (push + pack, a pure function of arrival order), applies the
//      armed message faults addressed to it, and runs the receive/update
//      walk (rt::receive_update_rank);
//   4. reports its RankCounters, message-matrix row delta, and applied
//      faults in one STEP control frame.
//
// Redistribution steps run DistMachine's rank-local mover
// (rt::redist_pack_rank / rt::redist_unpack_rank): one REDIST frame per
// peer carries this rank's stretches for it in ascending dense order,
// and the launcher checks the summed sends against rt::redist_moves.
#include "proc/worker.hpp"

#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "decomp/array_desc.hpp"
#include "lang/translate.hpp"
#include "obs/trace.hpp"
#include "proc/control.hpp"
#include "proc/job.hpp"
#include "proc/ring.hpp"
#include "proc/wire.hpp"
#include "rt/rank_step.hpp"
#include "rt/store.hpp"
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
    if (desc.is_replicated()) {
      std::copy(dense.begin(), dense.end(), row.begin());
      return;
    }
    rt::for_each_local_run(desc, rank_, [&](i64 local, i64 at, i64 len) {
      std::copy_n(dense.begin() + at, len, row.begin() + local);
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

  // Queues `values` to dst as one frame of bare value slots.
  void queue_values(i64 dst, FrameKind kind,
                    const std::vector<double>& values) {
    std::vector<Slot> payload;
    payload.reserve(values.size());
    for (double v : values) payload.push_back(value_slot(v));
    queue_frame(dst, kind, payload);
  }

  // Takes src's next frame of `kind` for this step as bare values.
  void take_values(i64 src, FrameKind kind, std::vector<double>& out) {
    const InFrame f = take_frame(src, kind);
    out.resize(f.payload.size());
    for (std::size_t i = 0; i < f.payload.size(); ++i)
      out[i] = slot_value(f.payload[i]);
  }

  // ---- clause steps --------------------------------------------------

  void run_clause(const Clause& clause) {
    if (clause.ord == prog::Ordering::Seq)
      throw CodegenError(
          "sequential ('•') clauses are not supported on the distributed "
          "target; the paper leaves DOACROSS orderings out of scope");

    obs::Tracer* tr = tracer_.get();
    const i64 p = rank_;
    const rt::RankSite site{p, tr, /*lane=*/0, step_};
    begin_step();

    std::vector<const FaultPlan*> active_faults;
    for (const FaultPlan& f : job_.faults)
      if (f.step == step_ && f.kind != FaultPlan::Kind::None)
        active_faults.push_back(&f);

    spmd::PlanCache::Entry& entry =
        lookup_.get(clause, program_.arrays, job_.build);
    const ClausePlan& plan = entry.plan;

    // DistMachine's dispatch: an armed fault takes the tagged path;
    // otherwise the step runs the schedule inspected at this layout,
    // unless the inspector refused the clause. The worker inspects every
    // rank, so all workers reach the same verdict and know each peer's
    // buffer sizes without asking.
    const spmd::CommSchedule* sched = nullptr;
    if (active_faults.empty()) {
      if (!entry.sched) {
        rt::Inspector inspector(plan);
        for (i64 q = 0; q < procs_; ++q)
          inspector.rank(rt::RankSite{q, tr, /*lane=*/0, step_});
        entry.sched = inspector.finish();
      }
      sched = static_cast<const spmd::CommSchedule*>(entry.sched.get());
    }

    // Pre-clause operand rows: the copy-in snapshot when the clause
    // reads its own target, so sends and local reads observe pre-clause
    // values.
    const std::vector<double>* snap = nullptr;
    for (const prog::ArrayRef& r : clause.refs)
      if (r.array == clause.lhs_array) {
        snap_ = rows_.at(clause.lhs_array);
        snap = &snap_;
        break;
      }
    auto pre_row = [&](const std::string& name) {
      return snap && name == clause.lhs_array ? snap : &rows_.at(name);
    };
    const auto nrefs = clause.refs.size();
    rr_.rows.resize(nrefs);
    rr_.halo.assign(nrefs, nullptr);
    for (std::size_t r = 0; r < nrefs; ++r)
      rr_.rows[r] = pre_row(clause.refs[r].array);

    RankCounters rc;
    rt::PathCounters pc;  // reporting only: workers report none
    std::vector<i64> matrix_row(static_cast<std::size_t>(procs_), 0);

    // ---- Phase 0, owner side: the values this rank owes each reader's
    // halo, in the reader's chunk order (push model: both ends
    // enumerate the same chunks, so no request round-trip).
    VCAL_TRACE(tr, 0, obs::EventKind::HaloBegin, step_);
    std::vector<const decomp::ArrayDesc*> halo_arrays;
    for (int r = 0; r < static_cast<int>(nrefs); ++r) {
      const decomp::ArrayDesc& rd = plan.ref_desc(r);
      bool seen = false;
      for (const decomp::ArrayDesc* h : halo_arrays)
        seen = seen || h->name() == rd.name();
      if (rd.halo() > 0 && !seen) halo_arrays.push_back(&rd);
    }
    std::vector<std::vector<Slot>> halo_out(
        static_cast<std::size_t>(procs_));
    for (const decomp::ArrayDesc* rd : halo_arrays) {
      const std::vector<double>& own = *pre_row(rd->name());
      for (i64 q = 0; q < procs_; ++q) {
        if (q == p) continue;
        rt::for_each_halo_chunk(*rd, q, [&](i64 owner, i64 local, i64 len) {
          if (owner != p) return;
          if (local + len > static_cast<i64>(own.size()))
            throw RuntimeFault("local read out of bounds on " + rd->name());
          ++rc.halo_bulk;
          rc.halo_values += len;
          for (i64 k = 0; k < len; ++k)
            halo_out[static_cast<std::size_t>(q)].push_back(
                value_slot(own[static_cast<std::size_t>(local + k)]));
        });
      }
    }

    // ---- Phase 1: packed buffers (scheduled) or (tag, value) channels
    // (tagged), one CLAUSE frame per peer — sent even when empty, so a
    // missing message manifests exactly as in the simulator (an absent
    // tag in a delivered channel), never as a transport hang.
    std::vector<Channel> channels(static_cast<std::size_t>(procs_));
    if (sched) {
      out_bufs_.resize(static_cast<std::size_t>(procs_));
      rt::pack_rank(*sched, site, rr_, out_bufs_.data());
    } else {
      rt::send_rank(plan, site, rr_, channels.data(), rc, pc,
                    matrix_row.data());
    }
    for (i64 dst = 0; dst < procs_; ++dst) {
      if (dst == p) continue;
      const auto ud = static_cast<std::size_t>(dst);
      if (!halo_arrays.empty())
        queue_frame(dst, FrameKind::Halo, halo_out[ud]);
      if (sched) {
        queue_values(dst, FrameKind::Clause, out_bufs_[ud]);
      } else {
        std::vector<Slot> payload;
        for (const auto& [tag, value] : channels[ud].msgs)
          payload.push_back(clause_slot(tag, value));
        queue_frame(dst, FrameKind::Clause, payload);
      }
      peers_[ud].expect = halo_arrays.empty() ? 1 : 2;
    }

    pump();

    // ---- Phase 0, reader side: fill this rank's halo rows from the
    // owners' streams.
    if (!halo_arrays.empty()) {
      halo_in_.resize(static_cast<std::size_t>(procs_));
      for (i64 src = 0; src < procs_; ++src)
        if (src != p)
          take_values(src, FrameKind::Halo,
                      halo_in_[static_cast<std::size_t>(src)]);
      std::vector<std::size_t> cursor(static_cast<std::size_t>(procs_), 0);
      // Owner-side counts of this rank's chunks: each owner charges its
      // own in its STEP frame.
      std::vector<i64> owner_bulk(static_cast<std::size_t>(procs_), 0);
      std::vector<i64> owner_values(owner_bulk.size(), 0);
      for (const decomp::ArrayDesc* rd : halo_arrays)
        rt::fill_halo_row(
            *rd, p, halos_[rd->name()], rc, owner_bulk.data(),
            owner_values.data(), [&](i64 owner, i64, i64 len) {
              const auto uo = static_cast<std::size_t>(owner);
              const std::vector<double>& in = halo_in_[uo];
              require(cursor[uo] + static_cast<std::size_t>(len) <= in.size(),
                      "proc worker: halo stream underflow (protocol bug)");
              const double* at = in.data() + cursor[uo];
              cursor[uo] += static_cast<std::size_t>(len);
              return at;
            });
      for (std::size_t r = 0; r < nrefs; ++r)
        if (plan.ref_desc(static_cast<int>(r)).halo() > 0)
          rr_.halo[r] = &halos_.at(clause.refs[r].array);
    }
    VCAL_TRACE(tr, 0, obs::EventKind::HaloEnd, step_);

    // ---- Phase 2: replay by offset (scheduled) or receive/update by
    // tag (tagged).
    std::vector<double>& out_row = rows_.at(clause.lhs_array);
    i64 faults_delta = 0;
    if (sched) {
      in_bufs_.resize(static_cast<std::size_t>(procs_));
      in_bufs_[static_cast<std::size_t>(p)].clear();
      for (i64 src = 0; src < procs_; ++src) {
        if (src == p) continue;
        std::vector<double>& in = in_bufs_[static_cast<std::size_t>(src)];
        take_values(src, FrameKind::Clause, in);
        if (in.size() != sched->send[static_cast<std::size_t>(src)]
                             .to[static_cast<std::size_t>(p)]
                             .size())
          throw RuntimeFault(cat("proc ring: packed buffer from rank ", src,
                                 " on rank ", p, " has the wrong length"));
        if (!in.empty())
          VCAL_TRACE(tr, 0, obs::EventKind::MsgRecv, step_, src,
                     static_cast<i64>(in.size()));
      }
      rt::replay_rank(*sched, plan, site, rr_, in_bufs_.data(), 1, out_row,
                      nullptr, pc);
      rc = rt::scheduled_counters(*sched, p, rc);
      for (i64 d = 0; d < procs_; ++d)
        matrix_row[static_cast<std::size_t>(d)] =
            sched->matrix_delta[static_cast<std::size_t>(p * procs_ + d)];
    } else {
      // Reconstruct the incoming channels: push in arrival order + pack()
      // reproduces the simulator's packed channel state bit-for-bit.
      std::vector<Channel> in_ch(static_cast<std::size_t>(procs_));
      for (i64 src = 0; src < procs_; ++src) {
        Channel& ch = in_ch[static_cast<std::size_t>(src)];
        if (src == p) continue;
        for (const Slot& s : take_frame(src, FrameKind::Clause).payload)
          ch.push(slot_tag(s), slot_value(s));
        ch.pack();
      }
      // Armed message faults addressed to this rank perturb the packed
      // channels, in injection order — the simulator's serial fault loop
      // restricted to dst == p.
      for (const FaultPlan* f : active_faults)
        if (f->dst == p && in_range(f->src, 0, procs_ - 1) &&
            rt::perturb(in_ch[static_cast<std::size_t>(f->src)], *f))
          ++faults_delta;
      rt::count_received(in_ch.data(), 1, procs_, site, rc);
      rt::receive_update_rank(plan, site, rr_, out_row, in_ch.data(), 1, rc,
                              pc);
      rt::check_delivered(p, in_ch.data(), 1, procs_);
    }
    send_step(rc, matrix_row, faults_delta);
  }

  // ---- redistribution steps ------------------------------------------

  void run_redistribute(const spmd::RedistStep& step) {
    obs::Tracer* tr = tracer_.get();
    const i64 p = rank_;
    const rt::RankSite site{p, tr, /*lane=*/0, step_};
    begin_step();
    VCAL_TRACE(tr, 0, obs::EventKind::RedistBegin, step_);
    const decomp::ArrayDesc& old_desc = program_.arrays.at(step.array);
    const decomp::ArrayDesc& new_desc = step.new_desc;
    std::vector<double> fresh;
    RankCounters rc;
    std::vector<i64> matrix_row(static_cast<std::size_t>(procs_), 0);
    out_bufs_.resize(static_cast<std::size_t>(procs_));
    rt::redist_pack_rank(old_desc, new_desc, site, rows_.at(step.array),
                         fresh, out_bufs_.data(), rc, matrix_row.data());
    for (i64 q = 0; q < procs_; ++q) {
      if (q == p) continue;
      queue_values(q, FrameKind::Redist,
                   out_bufs_[static_cast<std::size_t>(q)]);
      peers_[static_cast<std::size_t>(q)].expect = 1;
    }

    pump();

    in_bufs_.resize(static_cast<std::size_t>(procs_));
    in_bufs_[static_cast<std::size_t>(p)].clear();
    for (i64 src = 0; src < procs_; ++src)
      if (src != p)
        take_values(src, FrameKind::Redist,
                    in_bufs_[static_cast<std::size_t>(src)]);
    rt::redist_unpack_rank(old_desc, new_desc, site, in_bufs_.data(), 1,
                           fresh, rc);

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
  std::vector<double> snap_;  // copy-in snapshot of a clause's target
  rt::RankRows rr_;           // this rank's operand rows per clause step
  // Dense halo row per overlapped array (rank_step.hpp's halo slots).
  std::unordered_map<std::string, std::vector<double>> halos_;
  // Packed value buffers, per peer: outgoing and incoming on scheduled
  // steps, incoming halo values on every step with a halo.
  std::vector<std::vector<double>> out_bufs_, in_bufs_, halo_in_;
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
