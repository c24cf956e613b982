/**
 * @file
 * Chrome trace-event tracer (see trace.hh).
 */

#include "obs/trace.hh"

#include <algorithm>
#include <atomic>

#include "common/digest.hh"
#include "common/emit.hh"
#include "common/logging.hh"
#include "obs/registry.hh"

namespace pluto::obs
{

namespace
{

std::atomic<Tracer *> g_tracer{nullptr};

/** Hard cap per thread buffer: runaway emitters drop, not OOM. */
constexpr std::size_t kMaxEventsPerBuffer = 1u << 20;

/** JSON string escape for names/labels. */
std::string
esc(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

TraceArg
argNum(std::string key, double v)
{
    return {std::move(key), fmtDoubleExact(v)};
}

TraceArg
argStr(std::string key, const std::string &v)
{
    std::string json = "\"";
    json += esc(v);
    json += '"';
    return {std::move(key), std::move(json)};
}

/** One recorded event (Chrome trace-event fields). */
struct Tracer::Event
{
    std::string name;
    char ph = 'X';
    u32 pid = kHostPid;
    u64 tid = 0;
    /** Microseconds (the trace-event unit). */
    double tsUs = 0.0;
    double durUs = 0.0;
    std::vector<TraceArg> args;
};

/** One thread's append-only event buffer. */
struct Tracer::Buffer
{
    u64 tid = 0;
    std::string threadName;
    std::vector<Event> events;
    u64 dropped = 0;

    void push(Event ev)
    {
        if (events.size() >= kMaxEventsPerBuffer) {
            // The cap is a first-class signal, not a silent detail:
            // count the loss where the registry can export it and
            // tell the user once, when it starts.
            ++dropped;
            if (auto *sh = shard())
                sh->inc("obs/trace/dropped_events");
            warnOnce("trace: a per-thread event buffer hit its %zu-"
                     "event cap; further events on it are dropped "
                     "(see obs/trace/dropped_events)",
                     kMaxEventsPerBuffer);
            return;
        }
        events.push_back(std::move(ev));
    }
};

namespace
{
std::atomic<u64> g_tracerIds{0};
} // namespace

Tracer::Tracer()
    : epoch_(std::chrono::steady_clock::now()),
      id_(g_tracerIds.fetch_add(1) + 1)
{
}

Tracer::~Tracer()
{
    if (current() == this)
        install(nullptr);
}

Tracer *
Tracer::current()
{
    return g_tracer.load(std::memory_order_relaxed);
}

void
Tracer::install(Tracer *t)
{
    g_tracer.store(t, std::memory_order_relaxed);
}

Tracer::Buffer &
Tracer::buffer()
{
    // This thread's buffer within the currently relevant tracer,
    // keyed by tracer id (addresses can be recycled).
    static thread_local u64 t_owner = 0;
    static thread_local Buffer *t_buffer = nullptr;
    if (t_owner == id_ && t_buffer)
        return *t_buffer;
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    Buffer &b = *buffers_.back();
    b.tid = buffers_.size(); // 1-based host track ids
    t_owner = id_;
    t_buffer = &b;
    return b;
}

double
Tracer::nowNs() const
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Tracer::setThreadName(const std::string &name)
{
    buffer().threadName = name;
}

void
Tracer::hostSpan(const char *name, double t0Ns, double t1Ns,
                 std::vector<TraceArg> args)
{
    Buffer &b = buffer();
    Event ev;
    ev.name = name;
    ev.ph = 'X';
    ev.pid = kHostPid;
    ev.tid = b.tid;
    ev.tsUs = t0Ns * 1e-3;
    ev.durUs = (t1Ns - t0Ns) * 1e-3;
    ev.args = std::move(args);
    b.push(std::move(ev));
}

Tracer::Span::Span(const char *name, std::vector<TraceArg> args)
    : tracer_(Tracer::current()), name_(name), args_(std::move(args))
{
    if (tracer_)
        t0Ns_ = tracer_->nowNs();
}

Tracer::Span::~Span()
{
    if (tracer_)
        tracer_->hostSpan(name_, t0Ns_, tracer_->nowNs(),
                          std::move(args_));
}

u64
Tracer::newVirtualTrack(const std::string &label)
{
    std::lock_guard<std::mutex> lock(mu_);
    virtualTracks_.push_back(label);
    return virtualTracks_.size(); // 1-based virtual track ids
}

void
Tracer::virtualSpan(u64 track, const std::string &name, double tsNs,
                    double durNs, std::vector<TraceArg> args)
{
    Event ev;
    ev.name = name;
    ev.ph = 'X';
    ev.pid = kVirtualPid;
    ev.tid = track;
    ev.tsUs = tsNs * 1e-3;
    ev.durUs = durNs * 1e-3;
    ev.args = std::move(args);
    buffer().push(std::move(ev));
}

void
Tracer::virtualInstant(u64 track, const std::string &name,
                       double tsNs)
{
    Event ev;
    ev.name = name;
    ev.ph = 'i';
    ev.pid = kVirtualPid;
    ev.tid = track;
    ev.tsUs = tsNs * 1e-3;
    buffer().push(std::move(ev));
}

u64
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    u64 n = 0;
    for (const auto &b : buffers_)
        n += b->events.size();
    return n;
}

u64
Tracer::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    u64 n = 0;
    for (const auto &b : buffers_)
        n += b->dropped;
    return n;
}

std::string
Tracer::renderJson() const
{
    // Called after the emitting threads joined; the lock only guards
    // against a concurrent late registration.
    std::vector<const Event *> events;
    std::vector<std::pair<u64, std::string>> hostNames;
    std::vector<std::string> vtracks;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &b : buffers_) {
            for (const auto &ev : b->events)
                events.push_back(&ev);
            if (!b->threadName.empty())
                hostNames.emplace_back(b->tid, b->threadName);
        }
        vtracks = virtualTracks_;
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const Event *a, const Event *b) {
                         if (a->pid != b->pid)
                             return a->pid < b->pid;
                         if (a->tid != b->tid)
                             return a->tid < b->tid;
                         return a->tsUs < b->tsUs;
                     });

    std::string out = "{\"traceEvents\":[\n";
    bool first = true;
    const auto emit = [&](const std::string &line) {
        out += first ? "" : ",\n";
        first = false;
        out += line;
    };

    // Process + track naming metadata.
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,"
         "\"args\":{\"name\":\"host wall-clock\"}}");
    emit("{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":2,"
         "\"args\":{\"name\":\"virtual time\"}}");
    for (const auto &[tid, name] : hostNames)
        emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,"
             "\"tid\":" +
             std::to_string(tid) + ",\"args\":{\"name\":\"" +
             esc(name) + "\"}}");
    for (std::size_t i = 0; i < vtracks.size(); ++i)
        emit("{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":2,"
             "\"tid\":" +
             std::to_string(i + 1) + ",\"args\":{\"name\":\"" +
             esc(vtracks[i]) + "\"}}");

    for (const Event *ev : events) {
        std::string line = "{\"name\":\"" + esc(ev->name) +
                           "\",\"ph\":\"" + ev->ph +
                           "\",\"pid\":" + std::to_string(ev->pid) +
                           ",\"tid\":" + std::to_string(ev->tid) +
                           ",\"ts\":" + fmtDoubleExact(ev->tsUs);
        if (ev->ph == 'X')
            line += ",\"dur\":" + fmtDoubleExact(ev->durUs);
        if (ev->ph == 'i')
            line += ",\"s\":\"t\"";
        if (!ev->args.empty()) {
            line += ",\"args\":{";
            for (std::size_t a = 0; a < ev->args.size(); ++a) {
                if (a)
                    line += ",";
                line += '"';
                line += esc(ev->args[a].key);
                line += "\":";
                line += ev->args[a].json;
            }
            line += "}";
        }
        line += "}";
        emit(line);
    }
    out += "\n],\"displayTimeUnit\":\"ms\"}\n";
    return out;
}

std::string
Tracer::writeJson(const std::string &path) const
{
    return writeTextFile(path, renderJson());
}

} // namespace pluto::obs
