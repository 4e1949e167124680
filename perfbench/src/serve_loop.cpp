// Open-loop request generator for the serve surface.
//
// Requests have fixed due times. Request k goes to session k mod S. Each
// session has a sender thread, which submits its requests at their due
// times whether or not earlier ones have been answered, and a receiver
// thread, which waits for the results in submission order. The sender
// assigns request ids itself, so Client::submit touches only the socket
// and Client::wait (the receiver's alone) the result stash; the two
// threads share no other client state. Latency runs from the due time to
// the moment the receiver takes the result, so a stall charges every
// request queued behind it; the send lag records how far the sender fell
// behind its schedule.
#include <atomic>
#include <limits>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "serve/client.hpp"
#include "support/format.hpp"

namespace perfbench {

using namespace vcal;

namespace {

// The generator fell behind when more than kLateShare of the sends were
// over kLateMs late.
constexpr double kLateMs = 10.0;
constexpr double kLateShare = 0.05;

serve::RunRequest make_request(const Instance& inst, serve::Target target) {
  serve::RunRequest req;
  req.source = inst.source;
  req.target = target;
  // Executors provide the parallelism; each request runs on one lane,
  // through the bytecode kernels, so compile and queueing dominate.
  req.engine.threads = 1;
  req.engine.jit = false;
  for (const Input& in : inst.inputs) {
    serve::RunRequest::Input wire;
    wire.name = in.name;
    wire.ramp = inst.ramp;
    if (!inst.ramp) wire.values = in.values;
    req.inputs.push_back(std::move(wire));
  }
  req.gather = inst.outputs;
  req.want_stats = false;
  return req;
}

// Median, over 50 instants spread across [from, to) of the schedule, of
// the number of requests due but not yet answered. The median ignores a
// transient stall; a backlog that keeps growing moves it.
double backlog(const std::vector<ServeReq>& reqs, const std::vector<double>& done_ms,
               double from, double to) {
  std::vector<double> samples;
  for (int s = 0; s < 50; ++s) {
    const double t = from + (to - from) * (s + 0.5) / 50;
    double queued = 0;
    for (std::size_t k = 0; k < reqs.size(); ++k)
      if (reqs[k].due_ms <= t && done_ms[k] > t) queued += 1;
    samples.push_back(queued);
  }
  return median(samples);
}

}  // namespace

ServeLoopOut serve_loop(const std::string& address,
                        const std::vector<ServeReq>& reqs, int sessions,
                        Tally& tally) {
  const std::size_t n = reqs.size();
  const auto step = static_cast<std::size_t>(sessions);
  ServeLoopOut out;
  std::vector<serve::RunRequest> wire;
  wire.reserve(n);
  for (std::size_t k = 0; k < n; ++k) {
    wire.push_back(make_request(*reqs[k].inst, reqs[k].target));
    wire.back().request_id = static_cast<i64>(k + 1);
  }
  std::vector<serve::Client> clients(step);
  // Each session first runs one request of a program outside the
  // schedule, so session start-up is not charged to the first requests.
  Instance warm;
  warm.source = "processors 4;\narray W[0:7];\ndistribute W block;\n"
                "forall i in 0:7 do W[i] := i; od\n";
  warm.ramp = true;
  warm.outputs = {"W"};
  for (std::size_t s = 0; s < step; ++s) {
    clients[s].connect(address);
    serve::RunRequest req = make_request(warm, serve::Target::Dist);
    req.request_id = static_cast<i64>(n + 1 + s);
    clients[s].run(std::move(req));
  }

  std::vector<double> sent_ms(n, 0), done_ms(n, std::numeric_limits<double>::infinity());
  std::vector<serve::RunResult> results(n);
  std::vector<std::string> errors(n);
  // Per request: 0 not yet submitted, 1 submitted, 2 never submitted
  // (the sender failed, so the receiver must not wait for it). The
  // sender writes sent_ms/errors before publishing the state.
  enum : int { kPending = 0, kSent = 1, kUnsent = 2 };
  std::unique_ptr<std::atomic<int>[]> state(new std::atomic<int>[n]);
  for (std::size_t k = 0; k < n; ++k) state[k].store(kPending);
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  auto at = [&](double ms) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
  };
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < step; ++s) {
    threads.emplace_back([&, s] {
      serve::Client& client = clients[s];
      for (std::size_t k = s; k < n; k += step) {
        std::this_thread::sleep_until(at(reqs[k].due_ms));
        sent_ms[k] = ms_between(t0, Clock::now());
        try {
          Span span("serve.submit", static_cast<i64>(k + 1));
          client.submit(std::move(wire[k]));
        } catch (const std::exception& e) {
          errors[k] = e.what();
          for (std::size_t j = k; j < n; j += step) state[j].store(kUnsent);
          return;
        }
        state[k].store(kSent);
      }
    });
    threads.emplace_back([&, s] {
      serve::Client& client = clients[s];
      for (std::size_t k = s; k < n; k += step) {
        // Wait until the sender has had its chance at request k.
        std::this_thread::sleep_until(at(reqs[k].due_ms));
        int st = kPending;
        while ((st = state[k].load()) == kPending)
          std::this_thread::sleep_for(std::chrono::microseconds(50));
        if (st == kUnsent) return;
        try {
          Span span("serve.wait", static_cast<i64>(k + 1));
          results[k] = client.wait(static_cast<i64>(k + 1));
        } catch (const std::exception& e) {
          errors[k] = e.what();
          return;
        }
        done_ms[k] = ms_between(t0, Clock::now());
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& c : clients) c.close();
  out.wall_s = ms_between(t0, Clock::now()) / 1000.0;

  i64 late = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const serve::RunResult& res = results[k];
    std::string why = errors[k];
    if (why.empty() && done_ms[k] == std::numeric_limits<double>::infinity())
      why = "no result";
    if (why.empty() && res.status != serve::Status::Ok)
      why = cat("status ", static_cast<int>(res.status), ": ", res.error);
    if (why.empty()) {
      std::map<std::string, std::vector<double>> got(res.stores.begin(), res.stores.end());
      matches(*reqs[k].inst, got, &why);
    }
    const double lag = sent_ms[k] - reqs[k].due_ms;
    out.send_lag_ms.push_back(lag);
    if (lag > kLateMs) ++late;
    if (!why.empty()) {
      // A failed, rejected or wrong request misses every latency limit.
      tally.fail(cat("served request ", k, " (", reqs[k].inst->label, "): ", why));
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    tally.ok();
    out.latency_ms.push_back(done_ms[k] - reqs[k].due_ms);
    if (!res.cache_hit && !res.coalesced) out.compile_ms.push_back(res.compile_ms);
  }
  if (n > 0) {
    out.fell_behind = static_cast<double>(late) > kLateShare * static_cast<double>(n);
    const double span_ms = reqs.back().due_ms;
    const double first = backlog(reqs, done_ms, 0.0, 0.2 * span_ms);
    const double last = backlog(reqs, done_ms, 0.8 * span_ms, span_ms);
    out.backlog_grew = last > 2.0 * first + 2.0;
  }
  return out;
}

}  // namespace perfbench
