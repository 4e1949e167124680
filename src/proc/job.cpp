#include "proc/job.hpp"

#include <cstdio>
#include <fstream>

#include "proc/wire.hpp"
#include "support/error.hpp"

namespace vcal::proc {

namespace {
constexpr std::uint32_t kJobMagic = 0x4a4c4356;  // "VCLJ"
constexpr std::uint32_t kJobVersion = 3;

void put_build(WireWriter& w, const gen::BuildOptions& b) {
  w.put_u8(static_cast<std::uint8_t>(b.bs_form));
  w.put_u8(b.allow_enumerate_k ? 1 : 0);
  w.put_u8(b.force_runtime_resolution ? 1 : 0);
  w.put_i64(b.max_pieces);
}

void put_engine(WireWriter& w, const rt::EngineOptions& e) {
  w.put_i64(e.threads);
  w.put_u8(e.trace ? 1 : 0);
  w.put_i64(e.trace_capacity);
  w.put_u8(e.jit ? 1 : 0);
  w.put_i64(e.jit_threshold);
  w.put_u8(e.jit_sync ? 1 : 0);
  w.put_str(e.jit_cache_dir);
}
}  // namespace

std::vector<std::uint8_t> encode_job(const JobSpec& job) {
  WireWriter w;
  w.put_u32(kJobMagic);
  w.put_u32(kJobVersion);
  w.put_str(job.source);
  w.put_i64(job.procs);
  put_build(w, job.build);
  put_engine(w, job.engine);

  w.put_u32(static_cast<std::uint32_t>(job.faults.size()));
  for (const rt::FaultPlan& f : job.faults) {
    w.put_u8(static_cast<std::uint8_t>(f.kind));
    w.put_i64(f.step);
    w.put_i64(f.src);
    w.put_i64(f.dst);
    w.put_i64(f.index);
    w.put_i64(f.rank);
    w.put_i64(f.rounds);
  }

  w.put_u32(static_cast<std::uint32_t>(job.inputs.size()));
  for (const auto& [name, dense] : job.inputs) {
    w.put_str(name);
    w.put_f64s(dense);
  }

  w.put_i64(job.timeout_ms);
  w.put_i64(job.ring_slots);
  return std::move(w.bytes);
}

JobSpec decode_job(const std::uint8_t* data, std::size_t n) {
  WireReader r(data, n);
  require(r.get_u32() == kJobMagic, "proc job: bad magic");
  require(r.get_u32() == kJobVersion, "proc job: unsupported version");
  JobSpec job;
  job.source = r.get_str();
  job.procs = r.get_i64();

  job.build.bs_form = static_cast<gen::BuildOptions::BsForm>(r.get_u8());
  job.build.allow_enumerate_k = r.get_u8() != 0;
  job.build.force_runtime_resolution = r.get_u8() != 0;
  job.build.max_pieces = r.get_i64();

  rt::EngineOptions& e = job.engine;
  e.threads = static_cast<int>(r.get_i64());
  e.trace = r.get_u8() != 0;
  e.trace_capacity = r.get_i64();
  e.jit = r.get_u8() != 0;
  e.jit_threshold = static_cast<int>(r.get_i64());
  e.jit_sync = r.get_u8() != 0;
  e.jit_cache_dir = r.get_str();

  // A fault is a kind byte and six i64 fields.
  const std::uint32_t nfaults = r.get_count(1 + 6 * sizeof(i64));
  job.faults.resize(nfaults);
  for (std::uint32_t i = 0; i < nfaults; ++i) {
    rt::FaultPlan& f = job.faults[i];
    f.kind = static_cast<rt::FaultPlan::Kind>(r.get_u8());
    f.step = r.get_i64();
    f.src = r.get_i64();
    f.dst = r.get_i64();
    f.index = r.get_i64();
    f.rank = r.get_i64();
    f.rounds = r.get_i64();
  }

  // An input is at least a name length and a value count.
  const std::uint32_t ninputs = r.get_count(2 * sizeof(std::uint32_t));
  job.inputs.resize(ninputs);
  for (std::uint32_t i = 0; i < ninputs; ++i) {
    job.inputs[i].first = r.get_str();
    job.inputs[i].second = r.get_f64s();
  }

  job.timeout_ms = r.get_i64();
  job.ring_slots = r.get_i64();
  require(r.done(), "proc job: trailing bytes");
  return job;
}

void save_job(const std::string& path, const JobSpec& job) {
  std::vector<std::uint8_t> bytes = encode_job(job);
  // tmp + rename so a worker never maps a half-written job.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    require(out.good(), "proc job: cannot write " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    require(out.good(), "proc job: short write to " + tmp);
  }
  require(std::rename(tmp.c_str(), path.c_str()) == 0,
          "proc job: cannot publish " + path);
}

std::vector<std::uint8_t> encode_options_echo(const JobSpec& job) {
  WireWriter w;
  put_build(w, job.build);
  put_engine(w, job.engine);
  return std::move(w.bytes);
}

void put_rank_counters(WireWriter& w, const rt::RankCounters& c) {
  w.put_i64(c.sends);
  w.put_i64(c.receives);
  w.put_i64(c.iterations);
  w.put_i64(c.tests);
  w.put_i64(c.local_reads);
  w.put_i64(c.remote_reads);
  w.put_i64(c.bulk_sends);
  w.put_i64(c.bulk_receives);
  w.put_i64(c.halo_bulk);
  w.put_i64(c.halo_values);
  w.put_i64(c.halo_reads);
}

rt::RankCounters get_rank_counters(WireReader& r) {
  rt::RankCounters c;
  c.sends = r.get_i64();
  c.receives = r.get_i64();
  c.iterations = r.get_i64();
  c.tests = r.get_i64();
  c.local_reads = r.get_i64();
  c.remote_reads = r.get_i64();
  c.bulk_sends = r.get_i64();
  c.bulk_receives = r.get_i64();
  c.halo_bulk = r.get_i64();
  c.halo_values = r.get_i64();
  c.halo_reads = r.get_i64();
  return c;
}

JobSpec load_job(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "proc job: cannot read " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)),
      std::istreambuf_iterator<char>());
  return decode_job(bytes.data(), bytes.size());
}

}  // namespace vcal::proc
