#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "obs/metrics.hpp"
#include "rt/dist_machine.hpp"
#include "rt/seq_executor.hpp"
#include "rt/shared_machine.hpp"
#include "support/error.hpp"

namespace vcal::serve {
namespace {

/// "" means auto-UDS; anything with a '/' is a UDS path; "host:port"
/// is TCP. A bare name with neither separator is a UDS path in the
/// working directory.
bool is_tcp_addr(const std::string& addr) {
  return !addr.empty() && addr.find('/') == std::string::npos &&
         addr.find(':') != std::string::npos;
}

int listen_uds(const std::string& path) {
  require(path.size() < sizeof(sockaddr_un{}.sun_path),
          "serve: UNIX socket path too long: " + path);
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw RuntimeFault("serve: socket() failed");
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::strncpy(sa.sun_path, path.c_str(), sizeof(sa.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket from a crashed server
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw RuntimeFault("serve: cannot listen on " + path);
  }
  return fd;
}

int listen_tcp(const std::string& addr, std::string* resolved) {
  size_t colon = addr.rfind(':');
  std::string host = addr.substr(0, colon);
  int port = std::atoi(addr.c_str() + colon + 1);
  if (host.empty() || host == "localhost") host = "127.0.0.1";
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(static_cast<std::uint16_t>(port));
  require(::inet_pton(AF_INET, host.c_str(), &sa.sin_addr) == 1,
          "serve: bad TCP host (numeric IPv4 only): " + host);
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw RuntimeFault("serve: socket() failed");
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    throw RuntimeFault("serve: cannot listen on " + addr);
  }
  sockaddr_in got{};
  socklen_t len = sizeof got;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&got), &len);
  *resolved = host + ":" + std::to_string(ntohs(got.sin_port));
  return fd;
}

std::vector<double> ramp(i64 n) {
  std::vector<double> v(static_cast<size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v[static_cast<size_t>(i)] = static_cast<double>(i);
  return v;
}

ErrKind classify_run(const std::exception& e) {
  if (dynamic_cast<const RuntimeFault*>(&e) != nullptr)
    return ErrKind::Runtime;
  if (dynamic_cast<const CodegenError*>(&e) != nullptr)
    return ErrKind::Codegen;
  if (dynamic_cast<const SemanticError*>(&e) != nullptr)
    return ErrKind::Semantic;
  if (dynamic_cast<const InternalError*>(&e) != nullptr)
    return ErrKind::Internal;
  return ErrKind::Other;
}

std::string hex_key(std::uint64_t key) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

}  // namespace

std::string ServerStats::str() const {
  obs::MetricsRegistry reg;
  reg.set("sessions", sessions_opened);
  reg.set("active", sessions_active);
  reg.set("requests", requests);
  reg.set("rejected", rejected);
  reg.set("cache-hits", cache_hits);
  reg.set("cache-misses", cache_misses);
  reg.set("coalesced", cache_coalesced);
  reg.set("cache-entries", cache_entries);
  reg.set("cache-evictions", cache_evictions);
  reg.set("compiles", compiles);
  reg.set("queue-depth", queue_depth);
  reg.set("queue-peak", queue_peak);
  reg.set_real("p50-ms", p50_ms);
  reg.set_real("p99-ms", p99_ms);
  return reg.line();
}

std::string ServerStats::json() const {
  obs::MetricsRegistry reg;
  reg.set("sessions", sessions_opened);
  reg.set("active", sessions_active);
  reg.set("requests", requests);
  reg.set("rejected", rejected);
  reg.set("cache_hits", cache_hits);
  reg.set("cache_misses", cache_misses);
  reg.set("coalesced", cache_coalesced);
  reg.set("cache_entries", cache_entries);
  reg.set("cache_evictions", cache_evictions);
  reg.set("compiles", compiles);
  reg.set("queue_depth", queue_depth);
  reg.set("queue_peak", queue_peak);
  reg.set_real("p50_ms", p50_ms);
  reg.set_real("p99_ms", p99_ms);
  return reg.json();
}

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)), cache_(opts_.cache_entries) {}

Server::~Server() { stop(); }

void Server::start() {
  if (opts_.addr.empty()) {
    sock_dir_ = support::ScopedDir::make("vcal-serve-");
    address_ = sock_dir_.path() + "/serve.sock";
    listen_fd_ = listen_uds(address_);
  } else if (is_tcp_addr(opts_.addr)) {
    tcp_ = true;
    listen_fd_ = listen_tcp(opts_.addr, &address_);
  } else {
    address_ = opts_.addr;
    listen_fd_ = listen_uds(address_);
  }

  int n = opts_.executors > 0 ? opts_.executors : 4;
  executors_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i)
    executors_.emplace_back([this] { executor_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(shutdown_m_);
  shutdown_cv_.wait(lock, [&] { return shutdown_requested_; });
}

void Server::stop() {
  {
    std::lock_guard<std::mutex> lock(queue_m_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (listen_fd_ >= 0) {
    // Closing the fd alone does not reliably wake a blocked accept();
    // shutdown() does.
    ::shutdown(listen_fd_, SHUT_RDWR);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  {
    std::lock_guard<std::mutex> lock(sessions_m_);
    for (auto& s : sessions_)
      if (s->fd >= 0) ::shutdown(s->fd, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& t : executors_)
    if (t.joinable()) t.join();
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(sessions_m_);
    readers.swap(readers_);
  }
  for (auto& t : readers)
    if (t.joinable()) t.join();
  {
    std::lock_guard<std::mutex> lock(sessions_m_);
    for (auto& s : sessions_)
      if (s->fd >= 0) {
        ::close(s->fd);
        s->fd = -1;
      }
    sessions_.clear();
  }
  if (!tcp_ && !address_.empty()) ::unlink(address_.c_str());
  {
    std::lock_guard<std::mutex> lock(shutdown_m_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

ServerStats Server::stats() const {
  ServerStats s;
  {
    std::lock_guard<std::mutex> lock(stats_m_);
    s = stats_;
    s.p50_ms = percentile(latencies_, 0.50);
    s.p99_ms = percentile(latencies_, 0.99);
  }
  {
    CompileCache::Counters c = cache_.counters();
    s.cache_entries = c.entries;
    s.cache_evictions = c.evictions;
  }
  {
    std::lock_guard<std::mutex> qlock(queue_m_);
    s.queue_depth = static_cast<i64>(queue_.size());
  }
  {
    std::lock_guard<std::mutex> slock(sessions_m_);
    i64 active = 0;
    for (const auto& sess : sessions_)
      if (!sess->gone.load()) ++active;
    s.sessions_active = active;
  }
  return s;
}

void Server::accept_loop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd closed: shutting down
    }
    auto session = std::make_shared<Session>();
    session->id = next_session_.fetch_add(1);
    session->fd = fd;
    session->ctx = std::make_shared<rt::EngineContext>();
    {
      std::lock_guard<std::mutex> lock(sessions_m_);
      sessions_.push_back(session);
      readers_.emplace_back([this, session] { reader_loop(session); });
    }
    {
      std::lock_guard<std::mutex> lock(stats_m_);
      ++stats_.sessions_opened;
    }
  }
}

void Server::reader_loop(std::shared_ptr<Session> session) {
  try {
    Frame f;
    if (!recv_frame(session->fd, &f) || f.type != MsgType::Hello) {
      session->gone.store(true);
      return;
    }
    std::uint32_t version = decode_hello(f.payload);
    require(version == kProtocolVersion,
            "serve: protocol version mismatch");
    send_to(*session, MsgType::Welcome,
            encode_welcome(kProtocolVersion, session->id));

    while (recv_frame(session->fd, &f)) {
      switch (f.type) {
        case MsgType::Run: {
          RunRequest req = decode_run(f.payload);
          // Backpressure: a session at its cap gets an immediate
          // rejection, not a queue slot. The client retries.
          if (session->inflight.load() >=
              static_cast<i64>(opts_.session_inflight)) {
            RunResult res;
            res.request_id = req.request_id;
            res.status = Status::Rejected;
            res.error = "session at in-flight cap; retry";
            session->ctx->metric_add("rejected", 1);
            {
              std::lock_guard<std::mutex> lock(stats_m_);
              ++stats_.rejected;
            }
            send_to(*session, MsgType::Result, encode_result(res));
            break;
          }
          session->inflight.fetch_add(1);
          i64 depth;
          {
            std::lock_guard<std::mutex> lock(queue_m_);
            queue_.push_back(Job{session, std::move(req)});
            depth = static_cast<i64>(queue_.size());
          }
          {
            std::lock_guard<std::mutex> lock(stats_m_);
            stats_.queue_peak = std::max(stats_.queue_peak, depth);
          }
          queue_cv_.notify_one();
          break;
        }
        case MsgType::GetMetrics: {
          send_to(*session, MsgType::Metrics,
                  encode_metrics(stats().json(),
                                 session_metrics_json(*session)));
          break;
        }
        case MsgType::Shutdown: {
          send_to(*session, MsgType::Bye, {});
          {
            std::lock_guard<std::mutex> lock(shutdown_m_);
            shutdown_requested_ = true;
          }
          shutdown_cv_.notify_all();
          session->gone.store(true);
          return;
        }
        default:
          throw RuntimeFault(std::string("serve: unexpected frame ") +
                             msg_name(f.type));
      }
    }
  } catch (const std::exception&) {
    // Peer vanished or spoke garbage: drop the session, keep serving.
  }
  session->gone.store(true);
}

void Server::executor_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(queue_m_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    auto t0 = std::chrono::steady_clock::now();
    RunResult res = execute(*job.session, job.request);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    record_latency(ms);
    job.session->inflight.fetch_sub(1);
    if (!job.session->gone.load()) {
      try {
        send_to(*job.session, MsgType::Result, encode_result(res));
      } catch (const std::exception&) {
        job.session->gone.store(true);
      }
    }
  }
}

RunResult Server::execute(Session& session, const RunRequest& req) {
  RunResult res;
  res.request_id = req.request_id;
  {
    std::lock_guard<std::mutex> lock(stats_m_);
    ++stats_.requests;
  }
  session.ctx->metric_add("requests", 1);

  CompileCache::Outcome out = cache_.get(req.source, req.build);
  res.cache_hit = out.hit;
  res.coalesced = out.coalesced;
  res.compile_ms = out.hit ? 0.0 : out.entry->compile_ms;
  session.ctx->metric_add(out.hit ? "cache-hits" : "cache-misses", 1);
  if (out.coalesced) session.ctx->metric_add("cache-coalesced", 1);
  if (!out.hit && !out.coalesced)
    session.ctx->metric_add_real("compile-ms", out.entry->compile_ms);
  {
    std::lock_guard<std::mutex> lock(stats_m_);
    if (out.hit)
      ++stats_.cache_hits;
    else
      ++stats_.cache_misses;
    if (out.coalesced) ++stats_.cache_coalesced;
    if (!out.hit && !out.coalesced) ++stats_.compiles;
  }

  if (!out.entry->ok) {
    res.status = Status::CompileError;
    res.error_kind = out.entry->error_kind;
    res.error = out.entry->error;
    session.ctx->metric_add("errors", 1);
    return res;
  }

  // The compile fingerprint names the plan-cache lease scope, so every
  // served execution of one program on one machine kind shares
  // (serially) one warm cache; the context keeps each kind's pool apart.
  const std::string scope = hex_key(out.entry->key);
  try {
    auto load_inputs = [&](auto& machine) {
      for (const RunRequest::Input& in : req.inputs) {
        if (in.ramp) {
          auto it = out.entry->program.arrays.find(in.name);
          require(it != out.entry->program.arrays.end(),
                  "serve: unknown input array " + in.name);
          machine.load(in.name, ramp(it->second.total()));
        } else {
          machine.load(in.name, in.values);
        }
      }
    };
    rt::CommStats comm;  // schedule reuse, dist and shared only
    switch (req.target) {
      case Target::Dist: {
        rt::DistMachine m(out.entry->program, req.build, {}, req.engine,
                          session.ctx, scope);
        i64 h0 = m.plan_cache().hits(), m0 = m.plan_cache().misses();
        load_inputs(m);
        m.run();
        res.plan_hits = m.plan_cache().hits() - h0;
        res.plan_misses = m.plan_cache().misses() - m0;
        comm = m.comm_stats();
        for (const std::string& g : req.gather)
          res.stores.emplace_back(g, m.gather(g));
        if (req.want_stats) res.stats_line = m.stats().str();
        break;
      }
      case Target::Shared: {
        rt::SharedMachine m(out.entry->program, req.build, {},
                            req.elide_barriers, req.engine, session.ctx,
                            scope);
        i64 h0 = m.plan_cache().hits(), m0 = m.plan_cache().misses();
        load_inputs(m);
        m.run();
        res.plan_hits = m.plan_cache().hits() - h0;
        res.plan_misses = m.plan_cache().misses() - m0;
        comm = m.comm_stats();
        for (const std::string& g : req.gather)
          res.stores.emplace_back(g, m.result(g));
        if (req.want_stats) res.stats_line = m.stats().str();
        break;
      }
      case Target::Seq: {
        // Alias the cached program (no copy — the entry outlives the
        // executor) and share its kernel cache, so a warm request
        // skips kernel builds along with the front-end compile. The
        // kernel-cache delta doubles as the plan counters: for the
        // sequential target the compiled clause kernel IS the plan.
        auto program = std::shared_ptr<const spmd::Program>(
            out.entry, &out.entry->program);
        rt::SeqExecutor m(program, /*reference=*/false, session.ctx,
                          out.entry->kernels);
        spmd::KernelCache::Counters k0 = out.entry->kernels->counters();
        load_inputs(m);
        m.run();
        spmd::KernelCache::Counters k1 = out.entry->kernels->counters();
        res.plan_hits = k1.hits - k0.hits;
        res.plan_misses = k1.compiles - k0.compiles;
        for (const std::string& g : req.gather)
          res.stores.emplace_back(g, m.result(g));
        break;
      }
    }
    res.status = Status::Ok;
    session.ctx->metric_add("ok", 1);
    session.ctx->metric_add("plan-hits", res.plan_hits);
    session.ctx->metric_add("plan-misses", res.plan_misses);
    session.ctx->metric_add("sched-builds", comm.sched_builds);
    session.ctx->metric_add("sched-hits", comm.sched_hits);
  } catch (const std::exception& e) {
    res.status = Status::RunError;
    res.error_kind = classify_run(e);
    res.error = e.what();
    res.stores.clear();
    session.ctx->metric_add("errors", 1);
  }
  return res;
}

void Server::send_to(Session& session, MsgType type,
                     const std::vector<std::uint8_t>& payload) {
  std::lock_guard<std::mutex> lock(session.write_m);
  send_frame(session.fd, type, payload);
}

void Server::record_latency(double ms) {
  std::lock_guard<std::mutex> lock(stats_m_);
  if (static_cast<int>(latencies_.size()) <
      std::max(1, opts_.latency_samples)) {
    latencies_.push_back(ms);
  } else {
    // Overwrite round-robin: a bounded window biased to recent samples.
    latencies_[static_cast<size_t>(stats_.requests) % latencies_.size()] =
        ms;
  }
}

std::string Server::session_metrics_json(Session& session) const {
  return session.ctx->metrics_snapshot().json();
}

}  // namespace vcal::serve
