/**
 * @file
 * Telemetry-layer tests: counter-shard merge semantics, StatSet
 * absorption into the path hierarchy, the nested metrics JSON, the
 * Chrome trace-event export (parses, host spans nest per thread,
 * virtual-time tracks stay monotone), warnOnce() accounting — and
 * the load-bearing contract: --deterministic campaign outputs are
 * byte-identical with telemetry enabled vs disabled.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/emit.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "obs/histogram.hh"
#include "obs/registry.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "serve/metrics.hh"
#include "serve/runner.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"

namespace pluto::obs
{
namespace
{

/** RAII: enable the registry for one test, always restore. */
struct RegistryScope
{
    RegistryScope()
    {
        Registry::get().reset();
        Registry::get().enable(true);
    }
    ~RegistryScope()
    {
        Registry::get().enable(false);
        Registry::get().reset();
    }
};

TEST(CounterShard, MergeSumsCountersAndMaxesGauges)
{
    CounterShard a, b;
    a.add("x/count", 2.0);
    a.gaugeMax("x/peak", 5.0);
    b.add("x/count", 3.0);
    b.gaugeMax("x/peak", 4.0);
    b.gaugeMax("x/other", 1.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.counters().at("x/count"), 5.0);
    EXPECT_DOUBLE_EQ(a.gauges().at("x/peak"), 5.0);
    EXPECT_DOUBLE_EQ(a.gauges().at("x/other"), 1.0);
}

TEST(CounterShard, AbsorbTranslatesDottedStatNames)
{
    StatSet stats;
    stats.add("pluto.lut_reload", 3.0);
    stats.add("pluto.lut_reload.ns", 90.0);
    CounterShard sh;
    sh.absorb("device", stats);
    EXPECT_DOUBLE_EQ(sh.counters().at("device/pluto/lut_reload"),
                     3.0);
    EXPECT_DOUBLE_EQ(sh.counters().at("device/pluto/lut_reload/ns"),
                     90.0);
}

TEST(Registry, WorkerShardsFoldIntoRootAtTaskBoundary)
{
    RegistryScope scope;
    auto &reg = Registry::get();
    ASSERT_NE(shard(), nullptr); // enable() bound us to the root
    shard()->inc("main/ticks");

    reg.ensureTaskShards(2);
    reg.taskShard(0).add("campaign/cells", 4.0);
    reg.taskShard(1).add("campaign/cells", 6.0);
    reg.taskShard(0).gaugeMax("campaign/peak", 1.0);
    reg.taskShard(1).gaugeMax("campaign/peak", 7.0);

    reg.mergeTaskShards();
    const CounterShard snap = reg.snapshot();
    EXPECT_DOUBLE_EQ(snap.counters().at("campaign/cells"), 10.0);
    EXPECT_DOUBLE_EQ(snap.counters().at("main/ticks"), 1.0);
    EXPECT_DOUBLE_EQ(snap.gauges().at("campaign/peak"), 7.0);
    EXPECT_TRUE(reg.taskShard(0).empty()); // cleared by the merge
}

TEST(Registry, ShardIsNullWhenDisabled)
{
    Registry::get().enable(false);
    EXPECT_EQ(shard(), nullptr);
}

TEST(Registry, RenderJsonNestsPathsAndCountsDistinct)
{
    RegistryScope scope;
    auto &reg = Registry::get();
    // A path that is both a leaf and a subtree prefix must render
    // the leaf under "total".
    reg.root().add("a/b", 1.0);
    reg.root().add("a/b/c", 2.0);
    reg.root().add("x", 3.0);
    reg.root().gaugeMax("g/peak", 4.0);

    const std::string json =
        reg.renderJson({{"mode", "\"test\""}});
    std::string err;
    const auto doc = JsonValue::parse(json, err);
    ASSERT_TRUE(doc) << err << "\n" << json;

    ASSERT_TRUE(doc->find("mode"));
    EXPECT_EQ(doc->find("mode")->asString(), "test");
    ASSERT_TRUE(doc->find("distinct_counters"));
    EXPECT_DOUBLE_EQ(doc->find("distinct_counters")->asNumber(), 4.0);

    const JsonValue *counters = doc->find("counters");
    ASSERT_TRUE(counters && counters->isObject());
    const JsonValue *a = counters->find("a");
    ASSERT_TRUE(a && a->isObject());
    const JsonValue *b = a->find("b");
    ASSERT_TRUE(b && b->isObject());
    ASSERT_TRUE(b->find("total"));
    EXPECT_DOUBLE_EQ(b->find("total")->asNumber(), 1.0);
    ASSERT_TRUE(b->find("c"));
    EXPECT_DOUBLE_EQ(b->find("c")->asNumber(), 2.0);
    ASSERT_TRUE(counters->find("x"));
    EXPECT_DOUBLE_EQ(counters->find("x")->asNumber(), 3.0);
    const JsonValue *g = counters->find("g");
    ASSERT_TRUE(g && g->find("peak"));
    EXPECT_DOUBLE_EQ(g->find("peak")->asNumber(), 4.0);
}

/** All non-metadata events of one trace document. */
std::vector<const JsonValue *>
traceEvents(const JsonValue &doc)
{
    std::vector<const JsonValue *> out;
    const JsonValue *events = doc.find("traceEvents");
    EXPECT_TRUE(events && events->isArray());
    for (std::size_t i = 0; events && i < events->size(); ++i) {
        const JsonValue &ev = events->at(i);
        if (ev.find("ph") && ev.find("ph")->asString() != "M")
            out.push_back(&ev);
    }
    return out;
}

TEST(Tracer, JsonParsesAndHostSpansNestPerThread)
{
    Tracer tracer;
    Tracer::install(&tracer);
    tracer.setThreadName("main");
    {
        Tracer::Span outer("outer");
        {
            Tracer::Span inner("inner",
                               {argNum("k", 3.0),
                                argStr("label", "a \"quoted\" one")});
            (void)inner;
        }
    }
    std::thread other([&]() {
        tracer.setThreadName("other");
        tracer.hostSpan("elsewhere", 10.0, 20.0);
    });
    other.join();
    Tracer::install(nullptr);

    std::string err;
    const auto doc = JsonValue::parse(tracer.renderJson(), err);
    ASSERT_TRUE(doc) << err;
    EXPECT_EQ(tracer.droppedCount(), 0u);

    const JsonValue *outer = nullptr, *inner = nullptr,
                    *elsewhere = nullptr;
    for (const JsonValue *ev : traceEvents(*doc)) {
        const std::string name = ev->find("name")->asString();
        if (name == "outer")
            outer = ev;
        else if (name == "inner")
            inner = ev;
        else if (name == "elsewhere")
            elsewhere = ev;
    }
    ASSERT_TRUE(outer && inner && elsewhere);

    // Same thread, properly nested; the other thread on its own tid.
    EXPECT_DOUBLE_EQ(outer->find("tid")->asNumber(),
                     inner->find("tid")->asNumber());
    EXPECT_NE(outer->find("tid")->asNumber(),
              elsewhere->find("tid")->asNumber());
    const double o0 = outer->find("ts")->asNumber();
    const double o1 = o0 + outer->find("dur")->asNumber();
    const double i0 = inner->find("ts")->asNumber();
    const double i1 = i0 + inner->find("dur")->asNumber();
    EXPECT_LE(o0, i0);
    EXPECT_LE(i1, o1);
    ASSERT_TRUE(inner->find("args"));
    EXPECT_DOUBLE_EQ(inner->find("args")->find("k")->asNumber(), 3.0);
    EXPECT_EQ(inner->find("args")->find("label")->asString(),
              "a \"quoted\" one");
}

TEST(Tracer, VirtualTrackIsMonotoneAndLabeled)
{
    Tracer tracer;
    const u64 track = tracer.newVirtualTrack("gmc dev0");
    // Emitted deliberately out of order: the exporter sorts per
    // track, so the document reads monotone.
    tracer.virtualSpan(track, "wave", 200.0, 50.0);
    tracer.virtualSpan(track, "wave", 0.0, 100.0);
    tracer.virtualInstant(track, "reload", 150.0);

    std::string err;
    const auto doc = JsonValue::parse(tracer.renderJson(), err);
    ASSERT_TRUE(doc) << err;

    double prev = -1e300;
    std::size_t n = 0;
    for (const JsonValue *ev : traceEvents(*doc)) {
        ASSERT_DOUBLE_EQ(ev->find("pid")->asNumber(), kVirtualPid);
        const double ts = ev->find("ts")->asNumber();
        EXPECT_GE(ts, prev);
        prev = ts;
        ++n;
        if (ev->find("ph")->asString() == "i") {
            EXPECT_TRUE(ev->find("s")); // instants carry a scope
        }
    }
    EXPECT_EQ(n, 3u);

    // Track label shows up as thread_name metadata on pid 2.
    bool labeled = false;
    const JsonValue *events = doc->find("traceEvents");
    for (std::size_t i = 0; i < events->size(); ++i) {
        const JsonValue &ev = events->at(i);
        if (ev.find("ph")->asString() == "M" &&
            ev.find("name")->asString() == "thread_name" &&
            ev.find("pid")->asNumber() == kVirtualPid)
            labeled = labeled || ev.find("args")
                                         ->find("name")
                                         ->asString() == "gmc dev0";
    }
    EXPECT_TRUE(labeled);
}

TEST(Logging, WarnOnceCountsEveryCallPrintsOnce)
{
    const LogLevel before = logThreshold();
    setLogThreshold(LogLevel::Fatal); // keep test output clean
    WarnOnceState state;
    warnOnceImpl(state, "telemetry test warning %d", 1);
    warnOnceImpl(state, "telemetry test warning %d", 2);
    warnOnceImpl(state, "telemetry test warning %d", 3);
    EXPECT_EQ(state.count.load(), 3u);
    setLogThreshold(before);
}

TEST(Logging, ParseLogLevelNames)
{
    LogLevel out;
    EXPECT_FALSE(parseLogLevel("info", out));
    EXPECT_TRUE(parseLogLevel("warn", out));
    EXPECT_EQ(out, LogLevel::Warn);
    EXPECT_TRUE(parseLogLevel("error", out));
    EXPECT_EQ(out, LogLevel::Fatal);
    EXPECT_TRUE(parseLogLevel("quiet", out));
    EXPECT_EQ(out, LogLevel::Fatal);
    EXPECT_FALSE(parseLogLevel("loud", out));
}

TEST(StatSet, FormatRoundTripsDoubles)
{
    StatSet s;
    s.add("a.third", 1.0 / 3.0);
    s.add("b.count", 7.0);
    const std::string text = s.format();
    EXPECT_NE(text.find("a.third = 0.3333333333333333"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("b.count = 7"), std::string::npos);

    std::string err;
    const auto doc = JsonValue::parse(s.formatJson(), err);
    ASSERT_TRUE(doc) << err;
    EXPECT_DOUBLE_EQ(doc->find("a.third")->asNumber(), 1.0 / 3.0);
    EXPECT_DOUBLE_EQ(doc->find("b.count")->asNumber(), 7.0);
}

// ---- Mergeable histograms (obs/histogram) ----

/** Deterministic log-uniform samples over 4 decades [0.1, 1000).
 *  Hand-rolled LCG: standard-library distributions are not required
 *  to be bit-stable across implementations. */
std::vector<double>
logUniformSamples(std::size_t n)
{
    std::vector<double> v;
    v.reserve(n);
    u64 state = 0x9e3779b97f4a7c15ull;
    for (std::size_t i = 0; i < n; ++i) {
        state = state * 6364136223846793005ull +
                1442695040888963407ull;
        const double u = static_cast<double>(state >> 11) /
                         static_cast<double>(1ull << 53);
        v.push_back(std::pow(10.0, -1.0 + 4.0 * u));
    }
    return v;
}

TEST(Histogram, MergeIsExactInAnyOrderAndGrouping)
{
    const auto samples = logUniformSamples(3000);
    Histogram whole;
    for (double v : samples)
        whole.add(v);

    Histogram a, b, c;
    for (std::size_t i = 0; i < samples.size(); ++i)
        (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(samples[i]);

    Histogram ab = a; // (a + b) + c
    ab.merge(b);
    Histogram abc = ab;
    abc.merge(c);
    Histogram bc = b; // a + (b + c)
    bc.merge(c);
    Histogram a_bc = a;
    a_bc.merge(bc);
    Histogram cba = c; // commuted
    cba.merge(b);
    cba.merge(a);

    // Bucket counts (and therefore every quantile), count and the
    // min/max digest fold exactly, independent of merge shape.
    EXPECT_EQ(abc.buckets(), whole.buckets());
    EXPECT_EQ(a_bc.buckets(), whole.buckets());
    EXPECT_EQ(cba.buckets(), whole.buckets());
    EXPECT_EQ(abc.count(), whole.count());
    EXPECT_EQ(abc.min(), whole.min());
    EXPECT_EQ(abc.max(), whole.max());
    for (double q : {0.5, 0.99, 0.999}) {
        EXPECT_EQ(abc.quantile(q), whole.quantile(q));
        EXPECT_EQ(a_bc.quantile(q), whole.quantile(q));
        EXPECT_EQ(cba.quantile(q), whole.quantile(q));
    }
}

TEST(Histogram, QuantileTracksExactRankWithinBucketWidth)
{
    auto samples = logUniformSamples(5000);
    Histogram h;
    for (double v : samples)
        h.add(v);
    std::sort(samples.begin(), samples.end());
    for (double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = std::max<std::size_t>(
            1, static_cast<std::size_t>(
                   std::ceil(q * static_cast<double>(samples.size()))));
        const double exact = samples[rank - 1];
        // Buckets span at most a 1/64 relative width, so the bucket
        // midpoint sits within ~1.6% of the ranked sample.
        EXPECT_NEAR(h.quantile(q), exact, exact * 0.016) << "q=" << q;
    }
    // Out-of-range q clamps; answers never leave [min, max].
    EXPECT_EQ(h.quantile(-1.0), h.quantile(0.0));
    EXPECT_EQ(h.quantile(2.0), h.quantile(1.0));
    EXPECT_GE(h.quantile(0.0), h.min());
    EXPECT_LE(h.quantile(1.0), h.max());
}

TEST(Histogram, EmptyAndSingleSampleEdges)
{
    Histogram h;
    EXPECT_TRUE(h.empty());
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.min(), 0.0);
    EXPECT_EQ(h.max(), 0.0);

    h.add(0.37);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.min(), 0.37);
    EXPECT_EQ(h.max(), 0.37);
    // With min == max the clamp collapses every quantile to the
    // sample itself.
    EXPECT_EQ(h.quantile(0.0), 0.37);
    EXPECT_EQ(h.quantile(0.5), 0.37);
    EXPECT_EQ(h.quantile(1.0), 0.37);

    // Non-positive samples land in the dedicated underflow bucket.
    Histogram e;
    e.add(0.0);
    e.add(-3.0);
    ASSERT_EQ(e.buckets().count(Histogram::kUnderflowBucket), 1u);
    EXPECT_EQ(e.buckets().at(Histogram::kUnderflowBucket), 2u);
}

TEST(Histogram, JsonEncodingRoundTripsByteStably)
{
    Histogram h;
    h.addCount(1.0 / 3.0, 3);
    h.add(250.0);
    h.add(1e-4);
    // The members with the leading ',' turned into an object.
    std::string one = jsonMembers(h);
    one.front() = '{';
    one += '}';
    std::string err;
    const auto doc = JsonValue::parse(one, err);
    ASSERT_TRUE(doc) << err << "\n" << one;
    Histogram back;
    ASSERT_TRUE(fromJson(*doc, back));
    EXPECT_EQ(jsonMembers(back), jsonMembers(h));
    EXPECT_EQ(back.buckets(), h.buckets());
    EXPECT_EQ(back.quantile(0.5), h.quantile(0.5));
}

/**
 * The sparse-map histogram the dense bucket store replaced, kept as
 * the oracle: the same bucketing, digest, merge and nearest-rank
 * lookup over a std::map.
 */
struct MapHistogram
{
    std::map<i32, u64> buckets;
    u64 count = 0;
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;

    void addCount(double v, u64 n)
    {
        if (n == 0)
            return;
        buckets[Histogram::bucketOf(v)] += n;
        min = count ? std::min(min, v) : v;
        max = count ? std::max(max, v) : v;
        count += n;
        sum += v * static_cast<double>(n);
    }

    void merge(const MapHistogram &o)
    {
        if (o.count == 0)
            return;
        for (const auto &[idx, n] : o.buckets)
            buckets[idx] += n;
        min = count ? std::min(min, o.min) : o.min;
        max = count ? std::max(max, o.max) : o.max;
        count += o.count;
        sum += o.sum;
    }

    i32 rankBucket(double q) const
    {
        if (count == 0)
            return Histogram::kUnderflowBucket;
        const u64 rank = std::max<u64>(
            1, static_cast<u64>(std::ceil(std::clamp(q, 0.0, 1.0) *
                                          static_cast<double>(count))));
        u64 seen = 0;
        for (const auto &[idx, n] : buckets)
            if ((seen += n) >= rank)
                return idx;
        return buckets.rbegin()->first;
    }

    double quantile(double q) const
    {
        if (count == 0)
            return 0.0;
        const i32 idx = rankBucket(q);
        double rep = 0.0;
        if (idx == Histogram::kUnderflowBucket)
            rep = std::min(min, 0.0);
        else if (idx >= Histogram::kOverflowBucket)
            rep = max;
        else
            rep = 0.5 * (Histogram::bucketLo(idx) +
                         Histogram::bucketHi(idx));
        return std::clamp(rep, min, max);
    }
};

/** Bit pattern of a double: NaN == NaN and -0.0 != 0.0. */
u64
bitsOf(double v)
{
    return std::bit_cast<u64>(v);
}

/** Compare every observable of `h` against the oracle. */
void
expectMatchesOracle(const Histogram &h, const MapHistogram &ref,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(h.buckets(), ref.buckets);
    ASSERT_EQ(h.count(), ref.count);
    EXPECT_EQ(h.empty(), ref.count == 0);
    const bool any = ref.count > 0;
    EXPECT_EQ(bitsOf(h.sum()), bitsOf(any ? ref.sum : 0.0));
    EXPECT_EQ(bitsOf(h.min()), bitsOf(any ? ref.min : 0.0));
    EXPECT_EQ(bitsOf(h.max()), bitsOf(any ? ref.max : 0.0));
    for (const double q : {-1.0, 0.0, 1e-9, 0.001, 0.01, 0.1, 0.25, 0.5,
                           0.75, 0.9, 0.99, 0.999, 0.9999, 1.0, 2.0}) {
        EXPECT_EQ(h.rankBucket(q), ref.rankBucket(q)) << "q=" << q;
        EXPECT_EQ(bitsOf(h.quantile(q)), bitsOf(ref.quantile(q)))
            << "q=" << q;
    }
}

/**
 * Seeded values over more than 1000 octaves (2^-520 .. 2^520), a
 * tenth of them negated, with every special the bucketing separates
 * mixed in: zeros, subnormals, the normal extremes, NaN, +/-inf and
 * exact bucket edges.
 */
std::vector<double>
oracleValues(std::size_t n, u64 seed)
{
    Rng rng(seed);
    const std::vector<double> specials = {
        0.0,
        -0.0,
        -1.5,
        -1e300,
        std::numeric_limits<double>::denorm_min(),
        std::ldexp(0.75, -1022), // subnormal
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        Histogram::bucketLo(Histogram::bucketOf(3.0)),
        std::nextafter(Histogram::bucketHi(Histogram::bucketOf(3.0)),
                       0.0),
    };
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
        if (rng.below(16) == 0) {
            v.push_back(specials[rng.below(specials.size())]);
            continue;
        }
        const int exp = static_cast<int>(rng.below(1041)) - 520;
        const double x = std::ldexp(1.0 + rng.uniform(), exp);
        v.push_back(rng.below(10) == 0 ? -x : x);
    }
    return v;
}

TEST(Histogram, DenseStoreMatchesTheSparseMapOracle)
{
    // Streams that grow the dense range every way: random over >1000
    // octaves with specials, one octave, and monotone runs that set a
    // new extreme on every sample (falling: the geometric front
    // growth; rising: the back growth).
    std::vector<std::pair<std::string, std::vector<double>>> streams;
    streams.emplace_back("wide", oracleValues(4000, 0x0c1e));
    std::vector<double> narrow, falling, rising;
    Rng rng(0x0c1f);
    for (int i = 0; i < 2000; ++i) {
        narrow.push_back(1.0 + rng.uniform());
        falling.push_back(std::ldexp(1.0, 300 - i / 4));
        rising.push_back(std::ldexp(1.0 + rng.uniform(), i / 8 - 120));
    }
    streams.emplace_back("narrow", narrow);
    streams.emplace_back("falling", falling);
    streams.emplace_back("rising", rising);

    for (const auto &[name, values] : streams) {
        Histogram h;
        MapHistogram ref;
        expectMatchesOracle(h, ref, name + " empty");
        for (std::size_t i = 0; i < values.size(); ++i) {
            // Every seventh sample goes in as a repeat count.
            const u64 n = i % 7 == 6 ? 1 + i % 5 : 1;
            h.addCount(values[i], n);
            ref.addCount(values[i], n);
            if (i % 499 == 0)
                expectMatchesOracle(h, ref,
                                    name + " @" + std::to_string(i));
        }
        h.addCount(values.front(), 0); // a no-op on both
        ref.addCount(values.front(), 0);
        expectMatchesOracle(h, ref, name);

        // Self-merge doubles every count.
        Histogram twice = h;
        twice.merge(twice);
        MapHistogram refTwice = ref;
        refTwice.merge(ref);
        expectMatchesOracle(twice, refTwice, name + " self-merge");
    }

    // Merges in every grouping and order: three shards of the wide
    // stream, folded as (x + y) + z and x + (y + z) for each of the
    // six orders, plus empty operands on either side.
    const auto &wide = streams.front().second;
    Histogram part[3];
    MapHistogram refPart[3];
    for (std::size_t i = 0; i < wide.size(); ++i) {
        part[i % 3].add(wide[i]);
        refPart[i % 3].addCount(wide[i], 1);
    }
    int order[3] = {0, 1, 2};
    do {
        const auto [x, y, z] = order;
        const std::string tag = std::to_string(x) + std::to_string(y) +
                                std::to_string(z);
        Histogram left = part[x];
        left.merge(part[y]);
        left.merge(part[z]);
        MapHistogram refLeft = refPart[x];
        refLeft.merge(refPart[y]);
        refLeft.merge(refPart[z]);
        expectMatchesOracle(left, refLeft, "(" + tag + ") left");

        Histogram yz = part[y];
        yz.merge(part[z]);
        Histogram right = part[x];
        right.merge(yz);
        MapHistogram refYz = refPart[y];
        refYz.merge(refPart[z]);
        MapHistogram refRight = refPart[x];
        refRight.merge(refYz);
        expectMatchesOracle(right, refRight, "(" + tag + ") right");
        // Buckets and the count fold exactly whatever the shape.
        EXPECT_EQ(left.buckets(), right.buckets());
    } while (std::next_permutation(std::begin(order), std::end(order)));
    Histogram empty, intoEmpty;
    intoEmpty.merge(part[1]);
    expectMatchesOracle(intoEmpty, refPart[1], "into empty");
    Histogram withEmpty = part[2];
    withEmpty.merge(empty);
    expectMatchesOracle(withEmpty, refPart[2], "empty operand");

    // clear() reuse: a cleared histogram is empty, then records a
    // new stream exactly as a fresh one does.
    Histogram reused = part[0];
    reused.clear();
    expectMatchesOracle(reused, MapHistogram{}, "cleared");
    MapHistogram refNarrow;
    for (const double v : narrow) {
        reused.add(v);
        refNarrow.addCount(v, 1);
    }
    expectMatchesOracle(reused, refNarrow, "reused");
    reused.clear();
    reused.merge(part[0]);
    expectMatchesOracle(reused, refPart[0], "cleared then merged");
}

TEST(Registry, HistogramsFoldExactlyAcrossWorkerShards)
{
    RegistryScope scope;
    auto &reg = Registry::get();
    const auto samples = logUniformSamples(512);

    Histogram expect;
    for (double v : samples)
        expect.add(v);

    reg.ensureTaskShards(3);
    for (std::size_t i = 0; i < samples.size(); ++i)
        reg.taskShard(i % 3).hist("unit/lat_ms").add(samples[i]);
    reg.mergeTaskShards();

    const CounterShard snap = reg.snapshot();
    ASSERT_EQ(snap.hists().count("unit/lat_ms"), 1u);
    const Histogram &folded = snap.hists().at("unit/lat_ms");
    EXPECT_EQ(folded.buckets(), expect.buckets());
    EXPECT_EQ(folded.count(), expect.count());
    EXPECT_EQ(folded.min(), expect.min());
    EXPECT_EQ(folded.max(), expect.max());
    EXPECT_TRUE(reg.taskShard(0).empty()); // cleared by the merge

    // The metrics JSON renders a digest per histogram path.
    const std::string json = reg.renderJson({});
    std::string err;
    const auto doc = JsonValue::parse(json, err);
    ASSERT_TRUE(doc) << err << "\n" << json;
    ASSERT_TRUE(doc->find("distinct_histograms"));
    EXPECT_DOUBLE_EQ(doc->find("distinct_histograms")->asNumber(),
                     1.0);
    const JsonValue *hists = doc->find("histograms");
    ASSERT_TRUE(hists && hists->isObject());
    const JsonValue *lat = hists->find("unit/lat_ms");
    ASSERT_TRUE(lat && lat->find("count"));
    EXPECT_DOUBLE_EQ(lat->find("count")->asNumber(), 512.0);
}

// ---- Virtual-time series (obs/timeseries) ----

TEST(TimeSeries, ShardMergeMatchesSingleRecorder)
{
    const std::vector<SeriesCol> schema = {
        {"arrivals", SeriesAgg::Sum},
        {"depth", SeriesAgg::Max},
        {"lat", SeriesAgg::Hist},
    };
    TimeSeries whole(1e6, schema), a(1e6, schema), b(1e6, schema);
    const auto samples = logUniformSamples(200);
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const double t = static_cast<double>(i) * 31250.0;
        TimeSeries &shard = (i % 2) ? a : b;
        whole.record(t, 0, 1.0);
        shard.record(t, 0, 1.0);
        whole.record(t, 1, samples[i]);
        shard.record(t, 1, samples[i]);
        whole.record(t, 2, samples[i]);
        shard.record(t, 2, samples[i]);
    }
    a.merge(b);
    ASSERT_EQ(a.windows(), whole.windows());
    ASSERT_GT(whole.windows(), 3u);
    for (std::size_t w = 0; w < whole.windows(); ++w) {
        EXPECT_EQ(a.value(w, 0), whole.value(w, 0));
        EXPECT_EQ(a.value(w, 1), whole.value(w, 1));
        EXPECT_EQ(a.hist(w, 2).buckets(), whole.hist(w, 2).buckets());
    }
}

TEST(TimeSeries, RecordSpanSpreadsProportionally)
{
    TimeSeries s(1e6, {{"busy", SeriesAgg::Sum}});
    // [0.5 ms, 2.0 ms) carries 3.0 units: 1/3 of the overlap falls
    // into window 0, 2/3 into window 1.
    s.recordSpan(0.5e6, 2.0e6, 0, 3.0);
    ASSERT_EQ(s.windows(), 2u);
    EXPECT_DOUBLE_EQ(s.value(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(s.value(1, 0), 2.0);
    // A degenerate span is a no-op.
    s.recordSpan(5e6, 5e6, 0, 9.0);
    EXPECT_EQ(s.windows(), 2u);
}

/** A small sim campaign scenario (2 variants x 2 workload cells). */
sim::SimConfig
simScenario()
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(R"(
[scenario]
name = obs_sim
[variant v]
sweep design = gsa, gmc
[workload ADD4]
elements = 4096
[workload CRC-8]
elements = 2048
)",
                                           err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

/** A tiny service scenario: one pool, two rates. */
sim::SimConfig
serviceScenario()
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(R"(
[scenario]
name = obs_serve
[device]
design = gmc
salp = 64
[workload ColorGrade]
elements = 2048
tenant = 0
[service sat]
mode = open
arrivals = poisson
duration_ms = 2
policy = adaptive
batch = 8
devices = 2
lanes = 16
seed = 7
slo_ms = 1
sweep rate = 4000, 16000
)",
                                           err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

TEST(Determinism, SimOutputsByteIdenticalWithTelemetry)
{
    const auto cfg = simScenario();
    sim::RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    const sim::ScenarioRunner runner(cfg);

    Registry::get().enable(false);
    const auto plain = runner.run(opt);
    const std::string plainCsv =
        sim::MetricsSink::renderCsv(cfg, plain);
    const std::string plainJson =
        sim::MetricsSink::renderJson(cfg, plain);

    RegistryScope scope;
    Tracer tracer;
    Tracer::install(&tracer);
    const auto traced = runner.run(opt);
    Tracer::install(nullptr);

    EXPECT_EQ(plainCsv, sim::MetricsSink::renderCsv(cfg, traced));
    EXPECT_EQ(plainJson, sim::MetricsSink::renderJson(cfg, traced));

    // The side-band actually collected something meaningful.
    const CounterShard snap = Registry::get().snapshot();
    EXPECT_GE(snap.counters().size(), 20u);
    EXPECT_DOUBLE_EQ(snap.counters().at("campaign/cells"), 4.0);
    EXPECT_GT(snap.counters().at("device/dram/acts"), 0.0);
    EXPECT_GT(tracer.eventCount(), 0u);
}

TEST(Determinism, ServiceOutputsByteIdenticalWithTelemetry)
{
    const auto cfg = serviceScenario();
    sim::RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    const serve::ServiceRunner runner(cfg);

    Registry::get().enable(false);
    const auto plain = runner.run(opt);
    const std::string plainCsv =
        serve::ServiceMetricsSink::renderCsv(cfg, plain.runs);
    const std::string plainJson = serve::ServiceMetricsSink::renderJson(
        cfg, plain.runs, plain.wallMs);
    const std::string plainTail =
        serve::ServiceMetricsSink::renderTailReport(cfg, plain.runs);
    const std::string plainTs =
        serve::ServiceMetricsSink::renderTimeseriesCsv(cfg,
                                                       plain.runs);

    RegistryScope scope;
    Tracer tracer;
    Tracer::install(&tracer);
    const auto traced = runner.run(opt);
    Tracer::install(nullptr);

    EXPECT_EQ(plainCsv, serve::ServiceMetricsSink::renderCsv(
                            cfg, traced.runs));
    EXPECT_EQ(plainJson,
              serve::ServiceMetricsSink::renderJson(cfg, traced.runs,
                                                    traced.wallMs));
    EXPECT_EQ(plainTail, serve::ServiceMetricsSink::renderTailReport(
                             cfg, traced.runs));
    EXPECT_EQ(plainTs, serve::ServiceMetricsSink::renderTimeseriesCsv(
                           cfg, traced.runs));

    const CounterShard snap = Registry::get().snapshot();
    EXPECT_GT(snap.counters().at("serve/requests"), 0.0);
    EXPECT_GT(snap.counters().at("serve/batches"), 0.0);
    // The scenario sets slo_ms = 1, so the SLO partition and the
    // mergeable latency histogram both reach the registry.
    EXPECT_DOUBLE_EQ(snap.counters().at("serve/slo/good") +
                         snap.counters().at("serve/slo/violations"),
                     snap.counters().at("serve/requests"));
    ASSERT_EQ(snap.hists().count("serve/latency_ms"), 1u);
    EXPECT_EQ(
        static_cast<double>(snap.hists().at("serve/latency_ms").count()),
        snap.counters().at("serve/requests"));

    // The virtual-time domain carries per-device busy spans.
    std::string err;
    const auto doc = JsonValue::parse(tracer.renderJson(), err);
    ASSERT_TRUE(doc) << err;
    bool sawVirtual = false;
    for (const JsonValue *ev : traceEvents(*doc))
        sawVirtual = sawVirtual ||
                     ev->find("pid")->asNumber() == kVirtualPid;
    EXPECT_TRUE(sawVirtual);
}

TEST(Determinism, ServiceSidebandStableAcrossThreadCounts)
{
    const auto cfg = serviceScenario();
    const serve::ServiceRunner runner(cfg);
    Registry::get().enable(false);

    sim::RunOptions one;
    one.threads = 1;
    one.deterministic = true;
    sim::RunOptions four = one;
    four.threads = 4;
    const auto a = runner.run(one);
    const auto b = runner.run(four);

    EXPECT_EQ(serve::ServiceMetricsSink::renderCsv(cfg, a.runs),
              serve::ServiceMetricsSink::renderCsv(cfg, b.runs));
    EXPECT_EQ(
        serve::ServiceMetricsSink::renderTailReport(cfg, a.runs),
        serve::ServiceMetricsSink::renderTailReport(cfg, b.runs));
    EXPECT_EQ(
        serve::ServiceMetricsSink::renderTimeseriesCsv(cfg, a.runs),
        serve::ServiceMetricsSink::renderTimeseriesCsv(cfg, b.runs));
}

} // namespace
} // namespace pluto::obs
