#include "obs/trace_export.hpp"

#include <cstdio>
#include <vector>

#include "support/format.hpp"

namespace vcal::obs {

namespace {

// Microseconds with sub-ns resolution kept: the trace_event viewer's
// native unit. Fixed-point rendering (never scientific) keeps the JSON
// parseable by every consumer.
std::string us(i64 ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
  return buf;
}

std::string lane_name(const Tracer& t, i64 lane) {
  return lane == t.control_lane() ? std::string("engine")
                                  : cat("rank ", lane);
}

// Common "pid":…,"tid":…,"ts":… prefix of every non-metadata record.
std::string head(i64 lane, i64 wall_ns) {
  return cat("\"pid\":1,\"tid\":", lane, ",\"ts\":", us(wall_ns));
}

// Slice name of a paired span: the Begin kind without its suffix
// ("clause-begin" -> "clause").
std::string span_name(EventKind k) {
  std::string n = kind_name(k);
  if (n.size() > 6 && n.compare(n.size() - 6, 6, "-begin") == 0)
    n.resize(n.size() - 6);
  return n;
}

// Step and virtual time come from `b`, the payload from `e`: a closed
// span reports its End's payload (what a phase learns only as it ends,
// such as the inspector's element and run counts). Begins carry no
// payload but the barrier phase, which their End repeats.
std::string span_args(const TraceEvent& b, const TraceEvent& e) {
  return cat("{\"step\":", b.step, ",\"virt\":", b.virt, ",\"a0\":", e.a0,
             ",\"a1\":", e.a1, ",\"a2\":", e.a2, ",\"a3\":", e.a3, "}");
}

std::string span_args(const TraceEvent& e) { return span_args(e, e); }

// Emits one lane's records. `for_each` is anything that walks the
// lane's events in order and hands each to a callback — a RankTrace or
// a plain vector — so Tracer lanes and detached TraceLanes share the
// exact same rendering.
template <typename ForEach>
void emit_lane_records(std::vector<std::string>& records, i64 lane,
                       ForEach&& for_each) {
  std::vector<TraceEvent> open;  // Begin stack awaiting its End
  i64 last_ns = 0;
  for_each([&](const TraceEvent& e) {
    last_ns = e.wall_ns;
    if (is_begin(e.kind)) {
      open.push_back(e);
      return;
    }
    // An End closes the nearest matching Begin; Ends whose Begin was
    // overwritten in the ring are dropped.
    switch (e.kind) {
      case EventKind::ClauseEnd:
      case EventKind::HaloEnd:
      case EventKind::RedistEnd:
      case EventKind::BarrierEnd:
      case EventKind::PackEnd:
      case EventKind::GatherEnd:
      case EventKind::InspectEnd: {
        for (std::size_t i = open.size(); i-- > 0;) {
          if (end_of(open[i].kind) != e.kind) continue;
          const TraceEvent& b = open[i];
          records.push_back(cat(
              "{\"name\":\"", span_name(b.kind), "\",\"ph\":\"X\",",
              head(lane, b.wall_ns), ",\"dur\":", us(e.wall_ns - b.wall_ns),
              ",\"args\":", span_args(b, e), "}"));
          open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        }
        break;
      }
      case EventKind::KernelPath:
        records.push_back(
            cat("{\"name\":\"KernelPath\",\"ph\":\"C\",",
                head(lane, e.wall_ns), ",\"args\":{\"fused\":", e.a0,
                ",\"generic\":", e.a1, ",\"interp\":", e.a2,
                ",\"sched\":", e.a3, "}}"));
        break;
      case EventKind::StepCounters:
        records.push_back(
            cat("{\"name\":\"StepCounters\",\"ph\":\"C\",",
                head(lane, e.wall_ns), ",\"args\":{\"iters\":", e.a0,
                ",\"tests\":", e.a1, ",\"transfers\":", e.a2,
                ",\"bulk\":", e.a3, "}}"));
        break;
      default:
        records.push_back(cat("{\"name\":\"", kind_name(e.kind),
                              "\",\"ph\":\"i\",\"s\":\"t\",",
                              head(lane, e.wall_ns),
                              ",\"args\":", span_args(e), "}"));
        break;
    }
  });
  // Spans interrupted by an exception: close them at the lane's end so
  // the viewer still shows where the run stopped.
  for (std::size_t i = open.size(); i-- > 0;) {
    const TraceEvent& b = open[i];
    records.push_back(cat("{\"name\":\"", span_name(b.kind),
                          "\",\"ph\":\"X\",", head(lane, b.wall_ns),
                          ",\"dur\":", us(last_ns - b.wall_ns),
                          ",\"args\":", span_args(b), "}"));
  }
}

std::string assemble(const std::vector<std::string>& records, i64 ranks,
                     i64 events, i64 dropped) {
  std::string out = "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < records.size(); ++i)
    out += cat(records[i], i + 1 < records.size() ? ",\n" : "\n");
  out += cat("],\"displayTimeUnit\":\"ns\",\"otherData\":{",
             "\"ranks\":", ranks, ",\"events\":", events,
             ",\"dropped\":", dropped, "}}\n");
  return out;
}

std::string thread_name_record(i64 lane, const std::string& name) {
  return cat("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":", lane,
             ",\"args\":{\"name\":\"", name, "\"}}");
}

std::string process_name_record(const std::string& process_name) {
  return cat("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,",
             "\"args\":{\"name\":\"", process_name, "\"}}");
}

}  // namespace

std::string chrome_trace_json(const Tracer& tracer,
                              const std::string& process_name) {
  std::vector<std::string> records;
  records.push_back(process_name_record(process_name));
  for (i64 lane = 0; lane < tracer.lanes(); ++lane)
    records.push_back(thread_name_record(lane, lane_name(tracer, lane)));

  for (i64 lane = 0; lane < tracer.lanes(); ++lane) {
    const RankTrace& rt = tracer.lane(lane);
    emit_lane_records(records, lane,
                      [&](auto&& fn) { rt.for_each(fn); });
  }
  return assemble(records, tracer.ranks(), tracer.total_recorded(),
                  tracer.total_dropped());
}

std::string chrome_trace_json(const std::vector<TraceLane>& lanes,
                              const std::string& process_name) {
  std::vector<std::string> records;
  records.push_back(process_name_record(process_name));
  for (std::size_t lane = 0; lane < lanes.size(); ++lane)
    records.push_back(
        thread_name_record(static_cast<i64>(lane), lanes[lane].name));

  i64 events = 0;
  i64 dropped = 0;
  for (std::size_t lane = 0; lane < lanes.size(); ++lane) {
    const TraceLane& tl = lanes[lane];
    events += static_cast<i64>(tl.events.size());
    dropped += tl.dropped;
    emit_lane_records(records, static_cast<i64>(lane), [&](auto&& fn) {
      for (const TraceEvent& e : tl.events) fn(e);
    });
  }
  return assemble(records, static_cast<i64>(lanes.size()), events, dropped);
}

std::string timeline_text(const Tracer& tracer) {
  std::string out;
  for (i64 lane = 0; lane < tracer.lanes(); ++lane) {
    const RankTrace& rt = tracer.lane(lane);
    out += cat("== ", lane_name(tracer, lane), " (", rt.size(), " events");
    if (rt.dropped() > 0) out += cat(", ", rt.dropped(), " dropped");
    out += ") ==\n";
    std::vector<TraceEvent> open;
    rt.for_each([&](const TraceEvent& e) {
      if (is_begin(e.kind)) {
        open.push_back(e);
        return;
      }
      bool closed = false;
      for (std::size_t i = open.size(); i-- > 0;) {
        if (end_of(open[i].kind) != e.kind) continue;
        const TraceEvent& b = open[i];
        out += cat("  [", pad_left(us(b.wall_ns), 12), "us +",
                   us(e.wall_ns - b.wall_ns), "us] ", span_name(b.kind),
                   " step=", b.step, " virt=", b.virt, "\n");
        open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
        closed = true;
        break;
      }
      if (closed) return;
      out += cat("  [", pad_left(us(e.wall_ns), 12), "us] ",
                 kind_name(e.kind), " step=", e.step, " a=[", e.a0, ",",
                 e.a1, ",", e.a2, ",", e.a3, "]\n");
    });
  }
  return out;
}

}  // namespace vcal::obs
