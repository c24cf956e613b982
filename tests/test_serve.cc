/**
 * @file
 * Service-layer tests: batching policy decisions, deterministic load
 * generation, the serving simulator's invariants (bit-identical
 * reruns, tenant accounting, saturation behavior, batching with SALP
 * headroom), outcomes and telemetry pinned against
 * tests/golden/serve_*.golden, per-slot residency on the shared
 * executor, pool memory independent of the pool size, the metrics
 * fold against the sample-exact tail oracle, metrics memory
 * independent of the request count, and the service cache round trip
 * and key.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "golden.hh"

#include "common/digest.hh"
#include "common/random.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "serve/cache.hh"
#include "serve/engine.hh"
#include "serve/loadgen.hh"
#include "serve/memo.hh"
#include "serve/policy.hh"
#include "serve/runner.hh"
#include "serve/simulator.hh"
#include "serve/zipf.hh"

namespace pluto::serve
{
namespace
{

sim::ServiceSpec
specWith(sim::BatchPolicyKind policy)
{
    sim::ServiceSpec svc;
    svc.policy = policy;
    svc.batch = 4;
    svc.windowMs = 0.05;
    return svc;
}

TEST(BatchPolicy, ImmediateAlwaysTakesOne)
{
    const auto p =
        BatchPolicy::make(specWith(sim::BatchPolicyKind::Immediate));
    QueueView v{8, 8, 0.0, true};
    EXPECT_EQ(p->decide(v, 100.0).take, 1u);
}

TEST(BatchPolicy, FixedWaitsThenTakesK)
{
    const auto p =
        BatchPolicy::make(specWith(sim::BatchPolicyKind::FixedSize));
    QueueView v{2, 2, 0.0, true};
    EXPECT_EQ(p->decide(v, 0.0).take, 0u); // waits for 4
    v.eligible = v.depth = 5;
    EXPECT_EQ(p->decide(v, 0.0).take, 4u); // takes exactly k
    // A capped prefix (or drain) flushes what is there.
    v.eligible = 2;
    v.canGrow = false;
    EXPECT_EQ(p->decide(v, 0.0).take, 2u);
}

TEST(BatchPolicy, WindowWaitsUntilDeadline)
{
    const auto p = BatchPolicy::make(
        specWith(sim::BatchPolicyKind::TimeWindow));
    QueueView v{2, 2, 1000.0, true};
    const TimeNs window = 0.05 * 1e6;
    const auto wait = p->decide(v, 1000.0);
    EXPECT_EQ(wait.take, 0u);
    EXPECT_DOUBLE_EQ(wait.wakeAt, 1000.0 + window);
    // At its own wakeAt the policy must dispatch (a disagreement
    // here would pin the virtual clock).
    EXPECT_EQ(p->decide(v, wait.wakeAt).take, 2u);
    // The cap short-circuits the wait.
    v.eligible = v.depth = 9;
    EXPECT_EQ(p->decide(v, 1000.0).take, 4u);
}

TEST(BatchPolicy, AdaptiveDrainsUpToCap)
{
    const auto p =
        BatchPolicy::make(specWith(sim::BatchPolicyKind::Adaptive));
    QueueView v{3, 3, 0.0, true};
    EXPECT_EQ(p->decide(v, 0.0).take, 3u);
    v.eligible = v.depth = 9;
    EXPECT_EQ(p->decide(v, 0.0).take, 4u);
}

std::vector<RequestClass>
twoClassMix()
{
    RequestClass a;
    a.workload = "Bitwise-AND";
    a.elements = 4096;
    a.tenant = 0;
    a.weight = 1.0;
    RequestClass b;
    b.workload = "CRC-8";
    b.elements = 1024;
    b.tenant = 3;
    b.weight = 0.5;
    return {a, b};
}

/** Drain every due arrival through the streaming interface. */
std::vector<Request>
drainAll(LoadGen &gen, TimeNs until = 1e12)
{
    std::vector<Request> out;
    Request r;
    while (gen.poll(until, r))
        out.push_back(r);
    return out;
}

TEST(LoadGen, UniformOpenLoopIsExactSpacing)
{
    sim::ServiceSpec svc;
    svc.uniformArrivals = true;
    svc.ratePerSec = 1000.0; // 1 per ms
    svc.durationMs = 10.0;
    LoadGen gen(svc, twoClassMix());
    const auto all = drainAll(gen);
    ASSERT_EQ(all.size(), 10u);
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_DOUBLE_EQ(all[i].arriveNs, (i + 1) * 1e6);
        EXPECT_EQ(all[i].id, i);
    }
}

TEST(LoadGen, PoissonIsSeededAndReproducible)
{
    sim::ServiceSpec svc;
    svc.ratePerSec = 5000.0;
    svc.durationMs = 20.0;
    svc.seed = 99;
    LoadGen a(svc, twoClassMix());
    LoadGen b(svc, twoClassMix());
    const auto ra = drainAll(a);
    const auto rb = drainAll(b);
    ASSERT_EQ(ra.size(), rb.size());
    ASSERT_GT(ra.size(), 20u);
    bool sawBoth[2] = {false, false};
    for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_DOUBLE_EQ(ra[i].arriveNs, rb[i].arriveNs);
        EXPECT_EQ(ra[i].cls, rb[i].cls);
        ASSERT_LT(ra[i].cls, 2u);
        sawBoth[ra[i].cls] = true;
        if (i) {
            EXPECT_GT(ra[i].arriveNs, ra[i - 1].arriveNs);
        }
        EXPECT_LE(ra[i].arriveNs, svc.durationMs * 1e6);
    }
    EXPECT_TRUE(sawBoth[0]);
    EXPECT_TRUE(sawBoth[1]);

    svc.seed = 100;
    LoadGen c(svc, twoClassMix());
    const auto rc = drainAll(c);
    ASSERT_FALSE(rc.empty());
    EXPECT_NE(ra[0].arriveNs, rc[0].arriveNs);
}

TEST(LoadGen, ClosedLoopKeepsPopulationBounded)
{
    sim::ServiceSpec svc;
    svc.closedLoop = true;
    svc.clients = 4;
    svc.thinkMs = 0.5;
    svc.durationMs = 100.0;
    LoadGen gen(svc, twoClassMix());
    auto first = drainAll(gen);
    EXPECT_LE(first.size(), 4u);
    EXPECT_FALSE(gen.hasPending());
    // A completion re-arms exactly one client.
    ASSERT_FALSE(first.empty());
    gen.onComplete(first[0], 1e6);
    EXPECT_TRUE(gen.hasPending());
    const auto next = drainAll(gen);
    ASSERT_EQ(next.size(), 1u);
    EXPECT_GE(next[0].arriveNs, 1e6);
    // Completions past the duration retire the client.
    gen.onComplete(next[0], svc.durationMs * 1e6 + 1.0);
    EXPECT_FALSE(gen.hasPending());
}

TEST(LoadGen, TenantComesFromClass)
{
    sim::ServiceSpec svc;
    svc.uniformArrivals = true;
    svc.ratePerSec = 1000.0;
    svc.durationMs = 30.0;
    LoadGen gen(svc, twoClassMix());
    for (const auto &r : drainAll(gen))
        EXPECT_EQ(r.tenant, r.cls == 0 ? 0u : 3u);
}

TEST(LoadGen, PollIsAnIncrementalTake)
{
    // poll(until) must walk the same schedule as repeated bounded
    // drains: (time, id) order with no request lost or duplicated.
    sim::ServiceSpec svc;
    svc.ratePerSec = 5000.0;
    svc.durationMs = 20.0;
    svc.seed = 42;
    LoadGen whole(svc, twoClassMix());
    LoadGen stepped(svc, twoClassMix());
    const auto all = drainAll(whole);
    std::vector<Request> steps;
    for (TimeNs until = 0.0; until <= 21e6; until += 0.5e6)
        for (const auto &r : drainAll(stepped, until))
            steps.push_back(r);
    ASSERT_EQ(all.size(), steps.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].id, steps[i].id);
        EXPECT_DOUBLE_EQ(all[i].arriveNs, steps[i].arriveNs);
        EXPECT_EQ(all[i].cls, steps[i].cls);
    }
}

/**
 * The open-loop schedule by the plain rule, independent of LoadGen's
 * ring: per request a gap draw, then the class draw (a Zipf tenant
 * rank first when tenant_skew > 0, tenants ranked by ascending id),
 * for the first `n` requests regardless of the duration.
 */
std::vector<Request>
referenceArrivals(const sim::ServiceSpec &svc,
                  const std::vector<RequestClass> &mix, std::size_t n)
{
    const auto weighted = [](Rng &rng, const std::vector<u32> &classes,
                             const std::vector<RequestClass> &m) {
        double total = 0.0;
        for (const u32 c : classes)
            total += m[c].weight;
        const double x = rng.uniform() * total;
        double acc = 0.0;
        for (const u32 c : classes) {
            acc += m[c].weight;
            if (x < acc)
                return c;
        }
        return classes.back();
    };
    std::map<u32, std::vector<u32>> byTenant;
    std::vector<u32> all;
    for (u32 i = 0; i < mix.size(); ++i) {
        byTenant[mix[i].tenant].push_back(i);
        all.push_back(i);
    }
    std::vector<std::vector<u32>> ranked;
    for (const auto &[tenant, classes] : byTenant)
        ranked.push_back(classes);
    std::optional<ZipfSampler> zipf;
    if (svc.tenantSkew > 0.0)
        zipf.emplace(ranked.size(), svc.tenantSkew);

    Rng rng(svc.seed);
    std::vector<Request> out;
    TimeNs t = 0.0;
    for (u64 id = 0; id < n; ++id) {
        t += svc.uniformArrivals
                 ? 1e9 / svc.ratePerSec
                 : -std::log1p(-rng.uniform()) * 1e9 / svc.ratePerSec;
        Request r;
        r.id = id;
        if (zipf) {
            const auto &classes = ranked[zipf->sample(rng) - 1];
            r.cls = classes.size() == 1 ? classes.front()
                                        : weighted(rng, classes, mix);
        } else {
            r.cls = weighted(rng, all, mix);
        }
        r.tenant = mix[r.cls].tenant;
        r.arriveNs = t;
        out.push_back(r);
    }
    return out;
}

TEST(LoadGen, ProducerAndInlineStreamsMatchTheReference)
{
    // Both arrival drivers must walk the plain rule's schedule bit
    // for bit across ring-block boundaries: the window is cut between
    // two reference arrivals so exactly n requests fall inside it.
    constexpr std::size_t kB = LoadGen::kBlock;
    auto mix = twoClassMix();
    RequestClass extra = mix[1]; // a second class on tenant 0
    extra.tenant = 0;
    extra.weight = 2.0;
    mix.push_back(extra);
    const auto bits = [](TimeNs t) {
        u64 b = 0;
        std::memcpy(&b, &t, sizeof b);
        return b;
    };
    for (const bool uniform : {false, true})
        for (const double skew : {0.0, 2.0})
            for (const std::size_t n :
                 {std::size_t{0}, std::size_t{1}, kB - 1, kB, kB + 1,
                  3 * kB + 5, LoadGen::kBlocks * kB * 2 + 7}) {
                SCOPED_TRACE(std::string(uniform ? "uniform" : "poisson") +
                             " skew=" + std::to_string(skew) +
                             " n=" + std::to_string(n));
                sim::ServiceSpec svc;
                svc.uniformArrivals = uniform;
                svc.ratePerSec = 1e6;
                svc.seed = 7;
                svc.tenantSkew = skew;
                const auto ref = referenceArrivals(svc, mix, n + 1);
                const TimeNs lo = n ? ref[n - 1].arriveNs : 0.0;
                svc.durationMs = (lo + ref[n].arriveNs) / 2 * 1e-6;
                for (const auto driver :
                     {ArrivalDriver::Inline, ArrivalDriver::Thread}) {
                    LoadGen gen(svc, mix, driver);
                    // Let a producer fill the ring and block on it
                    // before the first read.
                    if (driver == ArrivalDriver::Thread)
                        std::this_thread::sleep_for(
                            std::chrono::milliseconds(5));
                    const auto got = drainAll(gen);
                    ASSERT_EQ(got.size(), n);
                    for (std::size_t i = 0; i < n; ++i) {
                        ASSERT_EQ(got[i].id, ref[i].id) << i;
                        ASSERT_EQ(got[i].cls, ref[i].cls) << i;
                        ASSERT_EQ(got[i].tenant, ref[i].tenant) << i;
                        ASSERT_EQ(bits(got[i].arriveNs),
                                  bits(ref[i].arriveNs))
                            << i;
                    }
                    EXPECT_FALSE(gen.hasPending());
                    EXPECT_EQ(gen.nextArrivalAt(),
                              std::numeric_limits<double>::infinity());
                }
            }
}

TEST(LoadGen, DestroyingABlockedProducerReturnsPromptly)
{
    // A schedule far too long to draw: destruction must stop the
    // producer, whether it is mid-fill or blocked on a full ring.
    sim::ServiceSpec svc;
    svc.ratePerSec = 1e9;
    svc.durationMs = 1e9;
    for (const int settleMs : {0, 50}) {
        auto gen = std::make_unique<LoadGen>(svc, twoClassMix(),
                                             ArrivalDriver::Thread);
        Request r;
        ASSERT_TRUE(gen->poll(1e12, r));
        // The producer fills the remaining ring within microseconds.
        std::this_thread::sleep_for(std::chrono::milliseconds(settleMs));
        const auto t0 = std::chrono::steady_clock::now();
        gen.reset();
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::seconds(2));
    }
}

TEST(ZipfSampler, IsSeededDeterministicAndInRange)
{
    const ZipfSampler zipf(16, 1.2);
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i) {
        const u64 ka = zipf.sample(a);
        EXPECT_EQ(ka, zipf.sample(b));
        EXPECT_GE(ka, 1u);
        EXPECT_LE(ka, 16u);
    }
    // Degenerate single-rank sampler still terminates.
    const ZipfSampler one(1, 0.7);
    Rng c(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(one.sample(c), 1u);
}

TEST(ZipfSampler, MatchesTheZipfMass)
{
    // Frequencies over 200k draws match p(k) = k^-s / H_{n,s} to
    // well under a percent (fixed seed, so no flakiness).
    const u64 n = 8;
    for (const double s : {0.6, 1.0, 2.0}) {
        const ZipfSampler zipf(n, s);
        Rng rng(123);
        std::vector<u64> count(n, 0);
        const int draws = 200000;
        for (int i = 0; i < draws; ++i)
            ++count[zipf.sample(rng) - 1];
        double hsum = 0.0;
        for (u64 k = 1; k <= n; ++k)
            hsum += std::pow(static_cast<double>(k), -s);
        for (u64 k = 1; k <= n; ++k) {
            const double p =
                std::pow(static_cast<double>(k), -s) / hsum;
            const double freq =
                static_cast<double>(count[k - 1]) / draws;
            EXPECT_NEAR(freq, p, 0.01)
                << "s=" << s << " rank=" << k;
        }
        // Monotone: the head outweighs every later rank.
        for (u64 k = 1; k < n; ++k)
            EXPECT_GE(count[0], count[k]);
    }
}

/** The sampler grid the table is checked on: rank counts around
 *  small, power-of-two and large tenant sets, skews on both sides of
 *  s = 1 and at it. */
const u64 kZipfRanks[] = {1, 2, 3, 4, 7, 16, 100, 256, 1000};
const double kZipfSkews[] = {0.3, 0.9, 1.0, 1.1, 2.0, 3.5};

TEST(ZipfSampler, TableDrawsMatchTheFormula)
{
    // The table-driven sampler must return the formula's rank on
    // every draw and consume exactly its uniforms: both streams stay
    // in lockstep, and the generators end in the same state.
    for (const u64 n : kZipfRanks) {
        for (const double s : kZipfSkews) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " s=" + std::to_string(s));
            const ZipfSampler zipf(n, s);
            Rng table(n * 31 + static_cast<u64>(s * 10));
            Rng direct = table;
            u64 mismatches = 0;
            for (int i = 0; i < 1000000; ++i)
                mismatches += zipf.sample(table) != zipf.sampleDirect(direct);
            EXPECT_EQ(mismatches, 0u);
            EXPECT_EQ(table.next(), direct.next());
        }
    }
}

TEST(ZipfSampler, TableMatchesTheFormulaAtEveryEdge)
{
    // Crafted inversion points: every decision edge, one ulp to
    // either side, and just outside the guard band on either side,
    // where the table answers without the formula.
    for (const u64 n : kZipfRanks) {
        for (const double s : kZipfSkews) {
            SCOPED_TRACE("n=" + std::to_string(n) +
                         " s=" + std::to_string(s));
            const ZipfSampler zipf(n, s);
            // The domain of point(): (point(1), point(0)].
            const double lo = zipf.point(1.0), hi = zipf.point(0.0);
            EXPECT_GE(zipf.edges().size(), n - 1);
            u64 checked = 0;
            const auto check = [&](double u) {
                if (u <= lo || u > hi)
                    return;
                ++checked;
                EXPECT_EQ(zipf.draw(u), zipf.drawDirect(u)) << "u=" << u;
            };
            const double inf = std::numeric_limits<double>::infinity();
            for (const double e : zipf.edges()) {
                const double out = ZipfSampler::guard(e) * (1 + 1e-6);
                for (const double u :
                     {e, std::nextafter(e, -inf), std::nextafter(e, inf),
                      e - out, e + out})
                    check(u);
            }
            // The domain ends and a coarse sweep across it.
            check(hi);
            check(std::nextafter(lo, inf));
            for (int i = 0; i < 4096; ++i)
                check(zipf.point((i + 0.5) / 4096));
            EXPECT_GE(checked, 5 * zipf.edges().size());
        }
    }
}

TEST(LoadGen, TenantSkewBiasesTowardLowTenantIds)
{
    // twoClassMix tenants {0, 3}: under skew=2, rank 1 (tenant 0)
    // carries 1/(1+2^-2) = 80% of the traffic; under the default
    // uniform draw it carries weight 1.0 of 1.5 ~ 67%.
    sim::ServiceSpec svc;
    svc.uniformArrivals = true;
    svc.ratePerSec = 100000.0;
    svc.durationMs = 40.0; // 4000 requests
    auto frac0 = [&](double skew) {
        auto s = svc;
        s.tenantSkew = skew;
        LoadGen gen(s, twoClassMix());
        const auto all = drainAll(gen);
        EXPECT_GT(all.size(), 1000u);
        u64 t0 = 0;
        for (const auto &r : all)
            t0 += r.tenant == 0;
        return static_cast<double>(t0) /
               static_cast<double>(all.size());
    };
    EXPECT_NEAR(frac0(0.0), 2.0 / 3.0, 0.04);
    EXPECT_NEAR(frac0(2.0), 0.8, 0.04);

    // Within a tenant, classes keep their relative weights.
    auto mix = twoClassMix();
    RequestClass extra = mix[1]; // CRC-8
    extra.tenant = 0;
    extra.weight = 3.0;
    mix.push_back(extra);
    auto s = svc;
    s.tenantSkew = 1.0;
    LoadGen gen(s, mix);
    u64 cls0 = 0, cls2 = 0;
    for (const auto &r : drainAll(gen)) {
        cls0 += r.cls == 0;
        cls2 += r.cls == 2;
    }
    ASSERT_GT(cls0, 100u);
    // weight 3.0 vs 1.0 within tenant 0.
    const double ratio = static_cast<double>(cls2) /
                         static_cast<double>(cls0);
    EXPECT_NEAR(ratio, 3.0, 0.45);

    // Skewed draws are as deterministic as uniform ones.
    LoadGen g1(s, mix), g2(s, mix);
    const auto r1 = drainAll(g1);
    const auto r2 = drainAll(g2);
    ASSERT_EQ(r1.size(), r2.size());
    for (std::size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].cls, r2[i].cls);
        EXPECT_DOUBLE_EQ(r1[i].arriveNs, r2[i].arriveNs);
    }
}

TEST(EventQueue, PopOrderIsInsertionOrderIndependent)
{
    // Any permutation of schedule() calls pops the same
    // (time, kind, device) sequence — the engine's determinism
    // hinges on this total order.
    Rng rng(2024);
    std::vector<Ev> events;
    for (int i = 0; i < 500; ++i) {
        Ev e;
        e.t = static_cast<double>(rng.below(64)); // force ties
        e.kind = rng.below(2) ? EvKind::PolicyWake
                              : EvKind::DeviceFree;
        e.dev = static_cast<u32>(rng.below(16));
        events.push_back(e);
    }
    auto popAll = [](EventQueue &q) {
        std::vector<Ev> out;
        while (!q.empty()) {
            out.push_back(q.top());
            q.pop();
        }
        return out;
    };
    EventQueue q1;
    for (const auto &e : events)
        q1.schedule(e.t, e.kind, e.dev);
    // Fisher-Yates with the seeded Rng: a different insertion order.
    for (std::size_t i = events.size(); i > 1; --i)
        std::swap(events[i - 1], events[rng.below(i)]);
    EventQueue q2;
    for (const auto &e : events)
        q2.schedule(e.t, e.kind, e.dev);

    const auto a = popAll(q1);
    const auto b = popAll(q2);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].t, b[i].t);
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_EQ(a[i].dev, b[i].dev);
        if (i == 0)
            continue;
        // Strictly ordered by (t, kind, dev).
        const bool ordered =
            a[i - 1].t < a[i].t ||
            (a[i - 1].t == a[i].t &&
             (a[i - 1].kind < a[i].kind ||
              (a[i - 1].kind == a[i].kind &&
               a[i - 1].dev <= a[i].dev)));
        EXPECT_TRUE(ordered) << "at " << i;
    }
    EXPECT_EQ(q1.scheduled(), 500u);
    EXPECT_EQ(q1.peak(), 500u);
}

TEST(LoadIndex, MatchesTheLinearScanOracle)
{
    // The tournament tree must pick exactly the device the polling
    // loop's linear scan picked (min load, ties to the lowest index)
    // across randomized traces: pools on both sides of powers of two
    // (padded and unpadded trees), arbitrary load jumps up and down
    // including to 0 and to huge values, and runs of updates to the
    // same device between picks.
    for (const u32 devices :
         {1u, 2u, 3u, 5u, 8u, 64u, 255u, 256u, 257u, 512u}) {
        SCOPED_TRACE(devices);
        Rng rng(1000 + devices);
        LoadIndex index(devices);
        std::vector<u64> load(devices, 0);
        const auto oracle = [&] {
            u32 best = 0;
            for (u32 d = 1; d < devices; ++d)
                if (load[d] < load[best])
                    best = d;
            return best;
        };
        const auto tracked = [&] {
            std::vector<u64> t(devices);
            for (u32 d = 0; d < devices; ++d)
                t[d] = index.load(d);
            return t;
        };
        ASSERT_EQ(index.leastLoaded(), 0u) << "fresh index";
        ASSERT_EQ(tracked(), load) << "fresh index";
        for (int op = 0; op < 4000; ++op) {
            const u32 d = static_cast<u32>(rng.below(devices));
            switch (rng.below(6)) {
            case 0:
            case 1: {
                // Arrival: dispatch least-loaded (checked against the
                // oracle after the previous op), then load += 1.
                const u32 picked = index.leastLoaded();
                index.update(picked, ++load[picked]);
                break;
            }
            case 2: // Completion: a device sheds a batch.
                load[d] -= std::min<u64>(load[d], 1 + rng.below(4));
                index.update(d, load[d]);
                break;
            case 3: // Jump to an arbitrary load, up or down.
                load[d] = rng.below(3) == 0 ? 0 : rng.below(1000);
                index.update(d, load[d]);
                break;
            case 4: // Jump to a huge load.
                load[d] = std::numeric_limits<u64>::max() -
                          rng.below(2);
                index.update(d, load[d]);
                break;
            default: // Several updates of one device between picks.
                for (int k = 0; k < 3; ++k) {
                    load[d] = rng.below(8);
                    index.update(d, load[d]);
                }
                break;
            }
            ASSERT_EQ(tracked(), load) << "op " << op;
            ASSERT_EQ(index.leastLoaded(), oracle()) << "op " << op;
        }
    }
}

TEST(LoadIndex, MatchesTheOracleAtWordEdgesAndTheDenseCap)
{
    // Pools on both sides of the 64-device bitmap word edges, driven
    // the way the serve loop drives the index: each device holds a
    // queue and an in-flight batch, an arrival adds 1 to the
    // least-loaded device, a batch start moves queue to in-flight
    // (load unchanged), and a completion drops the load to the queue
    // size. A second phase runs the same traffic with every load
    // straddling LoadIndex::kDenseLevels, so devices move between the
    // bitmaps and the overflow set in both directions.
    constexpr u64 kCap = LoadIndex::kDenseLevels;
    for (const u32 devices : {63u, 64u, 65u, 127u, 128u, 129u}) {
        SCOPED_TRACE(devices);
        Rng rng(2000 + devices);
        LoadIndex index(devices);
        std::vector<u64> queue(devices, 0), inFlight(devices, 0);
        const auto load = [&](u32 d) { return queue[d] + inFlight[d]; };
        const auto oracle = [&] {
            u32 best = 0;
            for (u32 d = 1; d < devices; ++d)
                if (load(d) < load(best))
                    best = d;
            return best;
        };
        const auto step = [&](int op) {
            const u32 d = static_cast<u32>(rng.below(devices));
            switch (rng.below(8)) {
            case 0: // Batch start: queue -> in flight.
                if (inFlight[d] == 0) {
                    const u64 take =
                        std::min<u64>(queue[d], 1 + rng.below(16));
                    queue[d] -= take;
                    inFlight[d] += take;
                    index.update(d, load(d));
                }
                break;
            case 1: // Completion: the load drops to the queue size.
                inFlight[d] = 0;
                index.update(d, load(d));
                break;
            default: { // Arrival to the least-loaded device.
                const u32 picked = index.leastLoaded();
                ++queue[picked];
                index.update(picked, load(picked));
                break;
            }
            }
            for (u32 i = 0; i < devices; ++i)
                ASSERT_EQ(index.load(i), load(i)) << "op " << op;
            ASSERT_EQ(index.leastLoaded(), oracle()) << "op " << op;
        };
        for (int op = 0; op < 20000; ++op)
            ASSERT_NO_FATAL_FAILURE(step(op));

        // Every load just under the cap: arrivals lift devices into
        // the overflow set, and completions drop some back below it.
        for (u32 d = 0; d < devices; ++d) {
            queue[d] = kCap - 1 - rng.below(3);
            inFlight[d] = 0;
            index.update(d, load(d));
        }
        ASSERT_EQ(index.leastLoaded(), oracle()) << "at the cap";
        for (int op = 0; op < 20000; ++op)
            ASSERT_NO_FATAL_FAILURE(step(op));
        u64 over = 0;
        for (u32 d = 0; d < devices; ++d)
            over += load(d) >= kCap;
        EXPECT_GT(over, 0u) << "no load passed the cap";
    }
}

TEST(RequestPool, FifoAcrossChunkBoundaries)
{
    ScratchArena arena;
    RequestPool pool(arena);
    RequestPool::Queue q;
    // Push enough to span several chunks, with a class change mid
    // stream to exercise eligiblePrefix.
    const u32 total = RequestPool::kChunkCap * 3 + 5;
    const u32 flip = RequestPool::kChunkCap + 7;
    for (u32 i = 0; i < total; ++i) {
        Request r;
        r.id = i;
        r.cls = i < flip ? 2 : 9;
        r.arriveNs = static_cast<double>(i);
        pool.pushBack(q, r);
    }
    EXPECT_EQ(q.size, total);
    EXPECT_EQ(pool.front(q).id, 0u);
    EXPECT_EQ(pool.eligiblePrefix(q), flip);
    // Drain in odd-sized bites and check FIFO order end to end.
    u64 expect = 0;
    while (q.size > 0) {
        const u64 n = std::min<u64>(q.size, 7);
        pool.forEach(q, n, [&](const Request &r) {
            EXPECT_EQ(r.id, expect++);
        });
        pool.popFront(q, n);
    }
    EXPECT_EQ(expect, total);
    // Chunks recycle: a reused queue starts from the free list.
    Request r;
    r.id = 777;
    r.cls = 1;
    pool.pushBack(q, r);
    EXPECT_EQ(pool.front(q).id, 777u);
    EXPECT_EQ(pool.eligiblePrefix(q), 1u);
}

TEST(BuildMix, ResolvesDefaultElements)
{
    sim::SimConfig cfg;
    sim::WorkloadSpec w;
    w.name = "CRC-8";
    w.elements = 0; // paper-scale default
    w.tenant = 7;
    w.weight = 2.0;
    cfg.workloads.push_back(w);
    runtime::DeviceConfig dev;
    const auto mix = buildMix(cfg, dev);
    ASSERT_EQ(mix.size(), 1u);
    EXPECT_GT(mix[0].elements, 0u);
    EXPECT_EQ(mix[0].tenant, 7u);
    EXPECT_DOUBLE_EQ(mix[0].weight, 2.0);
}

/** Small light-load serving cell shared by the simulator tests. */
sim::DeviceSpec
testVariant(u32 salp = 0)
{
    sim::DeviceSpec ds;
    ds.name = "test";
    ds.config.design = core::Design::Gmc;
    ds.config.salp = salp;
    return ds;
}

sim::ServiceSpec
testService(sim::BatchPolicyKind policy, double rate)
{
    sim::ServiceSpec svc;
    svc.policy = policy;
    svc.ratePerSec = rate;
    svc.durationMs = 5.0;
    svc.batch = 8;
    svc.devices = 2;
    svc.lanes = 16;
    svc.seed = 11;
    return svc;
}

void
expectSameOutcome(const ServiceOutcome &a, const ServiceOutcome &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    EXPECT_EQ(a.throughputRps, b.throughputRps);
    EXPECT_EQ(a.meanMs, b.meanMs);
    EXPECT_EQ(a.p50Ms, b.p50Ms);
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.p999Ms, b.p999Ms);
    EXPECT_EQ(a.maxMs, b.maxMs);
    EXPECT_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.pjPerRequest, b.pjPerRequest);
    for (u32 p = 0; p < kPhaseCount; ++p)
        EXPECT_EQ(a.phaseMs[p], b.phaseMs[p]) << phaseName(p);
    EXPECT_EQ(a.sloMs, b.sloMs);
    EXPECT_EQ(a.sloTarget, b.sloTarget);
    EXPECT_EQ(a.sloGood, b.sloGood);
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.sloBurnRate, b.sloBurnRate);
    EXPECT_EQ(a.tailQuantile, b.tailQuantile);
    EXPECT_EQ(a.tailThresholdMs, b.tailThresholdMs);
    EXPECT_EQ(a.tailRequests, b.tailRequests);
    EXPECT_EQ(a.seriesIntervalMs, b.seriesIntervalMs);
    EXPECT_EQ(jsonMembers(a.latHist), jsonMembers(b.latHist));
    ASSERT_EQ(a.tail.size(), b.tail.size());
    for (std::size_t i = 0; i < a.tail.size(); ++i) {
        EXPECT_EQ(a.tail[i].tenant, b.tail[i].tenant);
        EXPECT_EQ(a.tail[i].cls, b.tail[i].cls);
        EXPECT_EQ(a.tail[i].workload, b.tail[i].workload);
        EXPECT_EQ(a.tail[i].requests, b.tail[i].requests);
        EXPECT_EQ(a.tail[i].meanMs, b.tail[i].meanMs);
        for (u32 p = 0; p < kPhaseCount; ++p)
            EXPECT_EQ(a.tail[i].phaseMs[p], b.tail[i].phaseMs[p]);
    }
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].arrivals, b.series[i].arrivals);
        EXPECT_EQ(a.series[i].completions, b.series[i].completions);
        EXPECT_EQ(a.series[i].maxQueueDepth,
                  b.series[i].maxQueueDepth);
        EXPECT_EQ(a.series[i].maxInFlight, b.series[i].maxInFlight);
        EXPECT_EQ(a.series[i].busyNs, b.series[i].busyNs);
        EXPECT_EQ(a.series[i].p50Ms, b.series[i].p50Ms);
        EXPECT_EQ(a.series[i].p99Ms, b.series[i].p99Ms);
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        EXPECT_EQ(a.tenants[i].tenant, b.tenants[i].tenant);
        EXPECT_EQ(a.tenants[i].requests, b.tenants[i].requests);
        EXPECT_EQ(a.tenants[i].p99Ms, b.tenants[i].p99Ms);
        EXPECT_EQ(a.tenants[i].sloMs, b.tenants[i].sloMs);
        EXPECT_EQ(a.tenants[i].sloGood, b.tenants[i].sloGood);
        EXPECT_EQ(a.tenants[i].sloViolations,
                  b.tenants[i].sloViolations);
        EXPECT_EQ(a.tenants[i].sloAttainment,
                  b.tenants[i].sloAttainment);
        EXPECT_EQ(a.tenants[i].sloBurnRate,
                  b.tenants[i].sloBurnRate);
        for (u32 p = 0; p < kPhaseCount; ++p)
            EXPECT_EQ(a.tenants[i].phaseMs[p],
                      b.tenants[i].phaseMs[p]);
    }
}

// ---- Pinned serving goldens (tests/golden/serve_*.golden) ----
//
// The goldens are the serving oracle: they were recorded from the
// pool of one full PlutoDevice per slot, and every refactor of the
// loop or the pool must reproduce them bit for bit. Regenerate with
// PLUTO_UPDATE_GOLDEN=1 ./test_serve (see tests/README.md).

/** The three pLUTo designs the goldens cover, at SALP 128. */
std::vector<sim::DeviceSpec>
goldenVariants()
{
    std::vector<sim::DeviceSpec> out;
    const std::pair<const char *, core::Design> designs[] = {
        {"gmc", core::Design::Gmc},
        {"gsa", core::Design::Gsa},
        {"bsa", core::Design::Bsa},
    };
    for (const auto &[name, design] : designs) {
        sim::DeviceSpec v = testVariant(128);
        v.name = name;
        v.config.design = design;
        out.push_back(v);
    }
    return out;
}

/** A golden cell: the offered load scales with the pool. */
sim::ServiceSpec
goldenService(sim::BatchPolicyKind policy, bool closed, u32 devices,
              sim::MemoMode memo)
{
    sim::ServiceSpec svc = testService(policy, 30000.0 * devices);
    svc.durationMs = 2.0;
    svc.devices = devices;
    svc.closedLoop = closed;
    svc.clients = 6 * devices;
    svc.thinkMs = 0.02;
    svc.sloMs = 0.5;
    svc.memo = memo;
    return svc;
}

/** The fleet campaign's mix (examples/scenarios/service_fleet.ini):
 *  four tenants, the cold one running the heavy CRC-8 kernel. */
std::vector<RequestClass>
fleetMix()
{
    const std::pair<const char *, double> classes[] = {
        {"ColorGrade", 1.0},
        {"ImgBin", 0.8},
        {"Bitwise-XOR", 0.6},
        {"CRC-8", 0.4},
    };
    std::vector<RequestClass> mix;
    for (const auto &[workload, weight] : classes) {
        RequestClass c;
        c.workload = workload;
        c.elements = 1024;
        c.tenant = static_cast<u32>(mix.size());
        c.weight = weight;
        mix.push_back(c);
    }
    return mix;
}

/** A fleet-shape cell: Zipf-skewed tenants at the fleet's offered
 *  load per device (~95% utilization), on a short arrival window. */
sim::ServiceSpec
fleetService(u32 devices)
{
    sim::ServiceSpec svc =
        testService(sim::BatchPolicyKind::Adaptive, 34375.0 * devices);
    svc.durationMs = 3.0;
    svc.batch = 64;
    svc.devices = devices;
    svc.tenantSkew = 2.0;
    svc.sloMs = 2.0;
    svc.memo = sim::MemoMode::On;
    return svc;
}

constexpr sim::BatchPolicyKind kPolicies[] = {
    sim::BatchPolicyKind::Immediate,
    sim::BatchPolicyKind::FixedSize,
    sim::BatchPolicyKind::TimeWindow,
    sim::BatchPolicyKind::Adaptive,
};

constexpr sim::MemoMode kMemoModes[] = {
    sim::MemoMode::On,
    sim::MemoMode::Off,
    sim::MemoMode::Verify,
};

/** @return digest of every cached outcome field (codec body). */
std::string
outcomeDigest(const ServiceOutcome &out)
{
    return fnv1aHex(jsonMembers(out));
}

TEST(ServeSimulator, RerunsAreBitIdentical)
{
    const auto variant = testVariant();
    const auto svc =
        testService(sim::BatchPolicyKind::Adaptive, 3000.0);
    const auto mix = twoClassMix();
    const auto a = ServeSimulator(variant, svc, mix).run();
    const auto b = ServeSimulator(variant, svc, mix).run();
    ASSERT_GT(a.requests, 0u);
    EXPECT_TRUE(a.verified);
    expectSameOutcome(a, b);
}

TEST(ServeSimulator, ProducerThreadKeepsTheOutcome)
{
    // A fleet-shape cell on a 2.5 ms window (~22k requests, ~21 ring
    // blocks) gives the same outcome whichever thread draws arrivals.
    const auto variant = goldenVariants().front();
    auto svc = fleetService(256);
    svc.durationMs = 2.5;
    const auto mix = fleetMix();
    const auto cal = ServeSimulator::calibrateAll(variant.config, mix);
    const ServeSimulator sim(variant, svc, mix);
    const auto inl = sim.run(&cal, nullptr, ArrivalDriver::Inline);
    const auto thr = sim.run(&cal, nullptr, ArrivalDriver::Thread);
    ASSERT_GT(inl.requests, 20000u);
    expectSameOutcome(inl, thr);
    EXPECT_EQ(outcomeDigest(inl), outcomeDigest(thr));
}

TEST(ServeSimulator, SkewedTenantsStayDeterministic)
{
    const auto variant = testVariant();
    auto svc = testService(sim::BatchPolicyKind::Adaptive, 8000.0);
    svc.tenantSkew = 3.0;
    const auto mix = twoClassMix();
    const auto cal =
        ServeSimulator::calibrateAll(variant.config, mix);
    ServeSimulator sim(variant, svc, mix);
    const auto a = sim.run(&cal);
    const auto b = sim.run(&cal);
    ASSERT_GT(a.requests, 0u);
    expectSameOutcome(a, b);
    // The skewed stream matches its pinned outcome.
    test::expectGolden("serve_skewed",
                       "skew3 requests=" + std::to_string(a.requests) +
                           " " + outcomeDigest(a) + "\n",
                       "skewed serving outcome");
    // And skew shifts traffic toward tenant 0 vs the uniform draw.
    auto uniform = svc;
    uniform.tenantSkew = 0.0;
    const auto u =
        ServeSimulator(variant, uniform, mix).run(&cal);
    ASSERT_EQ(a.tenants.size(), 2u);
    ASSERT_EQ(u.tenants.size(), 2u);
    EXPECT_GT(a.tenants[0].requests, u.tenants[0].requests);
}

TEST(ServeSimulator, TenantRequestsSumToTotal)
{
    const auto out =
        ServeSimulator(testVariant(),
                       testService(sim::BatchPolicyKind::Immediate,
                                   4000.0),
                       twoClassMix())
            .run();
    ASSERT_EQ(out.tenants.size(), 2u);
    EXPECT_EQ(out.tenants[0].tenant, 0u);
    EXPECT_EQ(out.tenants[1].tenant, 3u);
    EXPECT_EQ(out.tenants[0].requests + out.tenants[1].requests,
              out.requests);
    // Per-tenant tails are bounded by the overall max.
    EXPECT_LE(out.tenants[0].p999Ms, out.maxMs + 1e-12);
    EXPECT_LE(out.tenants[1].p999Ms, out.maxMs + 1e-12);
}

TEST(ServeSimulator, OverloadGrowsTailLatency)
{
    const auto variant = testVariant();
    const auto mix = twoClassMix();
    const auto light =
        ServeSimulator(variant,
                       testService(
                           sim::BatchPolicyKind::Immediate, 500.0),
                       mix)
            .run();
    const auto heavy =
        ServeSimulator(variant,
                       testService(
                           sim::BatchPolicyKind::Immediate, 50000.0),
                       mix)
            .run();
    ASSERT_GT(light.requests, 0u);
    ASSERT_GT(heavy.requests, light.requests);
    // Past saturation the queues grow for the whole window: p99 must
    // blow up by far more than the load ratio alone explains.
    EXPECT_GT(heavy.p99Ms, light.p99Ms * 10.0);
    EXPECT_GT(heavy.meanQueueDepth, light.meanQueueDepth);
}

TEST(ServeSimulator, SalpHeadroomMakesBatchingWin)
{
    // 8 gangs of 16 lanes: the adaptive batcher shares lock-step
    // waves and must beat the immediate server's capacity under
    // saturating single-class load.
    sim::DeviceSpec variant = testVariant(128);
    sim::ServiceSpec imm =
        testService(sim::BatchPolicyKind::Immediate, 400000.0);
    imm.devices = 1;
    sim::ServiceSpec ada = imm;
    ada.policy = sim::BatchPolicyKind::Adaptive;
    std::vector<RequestClass> mix = {twoClassMix()[0]};

    const auto a = ServeSimulator(variant, imm, mix).run();
    const auto b = ServeSimulator(variant, ada, mix).run();
    ASSERT_EQ(a.requests, b.requests); // same arrival stream
    EXPECT_GT(b.meanBatch, 1.0);
    EXPECT_GT(b.throughputRps, a.throughputRps);
    EXPECT_LT(b.makespanMs, a.makespanMs);
}

TEST(ServeSimulator, PhasesPartitionLatencyAndSloPartitionsRequests)
{
    sim::ServiceSpec svc =
        testService(sim::BatchPolicyKind::Adaptive, 8000.0);
    svc.sloMs = 0.5;
    const auto out =
        ServeSimulator(testVariant(), svc, twoClassMix()).run();
    ASSERT_GT(out.requests, 0u);

    // The five phases decompose the summed end-to-end latency.
    double phaseSum = 0.0;
    for (u32 p = 0; p < kPhaseCount; ++p) {
        EXPECT_GE(out.phaseMs[p], 0.0) << phaseName(p);
        phaseSum += out.phaseMs[p];
    }
    const double totalMs =
        out.meanMs * static_cast<double>(out.requests);
    EXPECT_NEAR(phaseSum, totalMs, 1e-6 * std::max(1.0, totalMs));

    // The latency histogram sees every completion and carries the
    // exact maximum.
    EXPECT_EQ(out.latHist.count(), out.requests);
    EXPECT_EQ(out.latHist.max(), out.maxMs);

    // SLO tracking partitions the request population.
    EXPECT_EQ(out.sloMs, 0.5);
    EXPECT_EQ(out.sloGood + out.sloViolations, out.requests);
    EXPECT_DOUBLE_EQ(out.sloAttainment,
                     static_cast<double>(out.sloGood) /
                         static_cast<double>(out.requests));
    u64 tenantGood = 0, tenantBad = 0;
    for (const auto &t : out.tenants) {
        EXPECT_EQ(t.sloMs, 0.5);
        tenantGood += t.sloGood;
        tenantBad += t.sloViolations;
    }
    EXPECT_EQ(tenantGood, out.sloGood);
    EXPECT_EQ(tenantBad, out.sloViolations);

    // The tail-blame pass found the configured quantile's population
    // and the series covers the makespan.
    EXPECT_EQ(out.tailQuantile, 0.99);
    EXPECT_GT(out.tailThresholdMs, 0.0);
    EXPECT_GT(out.tailRequests, 0u);
    ASSERT_FALSE(out.tail.empty());
    u64 tailSum = 0;
    for (const auto &g : out.tail) {
        tailSum += g.requests;
        EXPECT_LT(g.dominantPhase(), kPhaseCount);
    }
    EXPECT_EQ(tailSum, out.tailRequests);
    ASSERT_FALSE(out.series.empty());
    EXPECT_GE(static_cast<double>(out.series.size()) *
                  out.seriesIntervalMs,
              out.makespanMs);
    u64 completions = 0;
    for (const auto &w : out.series)
        completions += w.completions;
    EXPECT_EQ(completions, out.requests);
}

TEST(ServeSimulator, GsaPaysLutReloadGmcDoesNot)
{
    // GSA re-loads the LUT per query (destructive reads), so its
    // serving-time phase breakdown must blame a strictly positive
    // lut_reload share; GMC serves from residency and charges none.
    sim::DeviceSpec gmc = testVariant();
    sim::DeviceSpec gsa = testVariant();
    gsa.config.design = core::Design::Gsa;
    const auto svc =
        testService(sim::BatchPolicyKind::Adaptive, 8000.0);
    const auto mix = twoClassMix();
    const auto a = ServeSimulator(gmc, svc, mix).run();
    const auto b = ServeSimulator(gsa, svc, mix).run();
    ASSERT_GT(a.requests, 0u);
    ASSERT_GT(b.requests, 0u);
    const u32 reload = static_cast<u32>(Phase::LutReload);
    EXPECT_EQ(a.phaseMs[reload], 0.0);
    EXPECT_GT(b.phaseMs[reload], 0.0);
}

TEST(ServeSimulator, SharedMemoReplaysWithoutNewEntries)
{
    // A second run over the same signature stream must find every
    // bundle already recorded: the table stops growing, and the
    // replayed outcome still matches the first run bit for bit.
    const auto variant = testVariant(128);
    auto svc = testService(sim::BatchPolicyKind::Adaptive, 20000.0);
    svc.durationMs = 3.0;
    const auto mix = twoClassMix();
    const auto cal =
        ServeSimulator::calibrateAll(variant.config, mix);
    ServeSimulator sim(variant, svc, mix);
    BatchMemo memo;
    const auto a = sim.run(&cal, &memo);
    ASSERT_GT(a.requests, 0u);
    const auto entries = memo.entries().size();
    ASSERT_GT(entries, 0u);
    EXPECT_GT(memo.approxBytes(), 0u);
    const auto b = sim.run(&cal, &memo);
    EXPECT_EQ(memo.entries().size(), entries);
    expectSameOutcome(a, b);
}

TEST(ServeSimulator, MissesExecuteFromTheSlotsResidency)
{
    // Each pool slot carries its own LUT residency, and a miss runs
    // on the shared executor with that residency injected. Seed the
    // memo with every GMC bundle rewritten to evict the LUT: a
    // slot's next batch then misses on a non-resident signature and
    // must pay a cold reload, whatever state earlier batches left
    // the executor's own LUT in.
    const auto variant = testVariant(128);
    auto svc = testService(sim::BatchPolicyKind::Immediate, 20000.0);
    svc.durationMs = 2.0;
    const auto mix = twoClassMix();
    const auto cal =
        ServeSimulator::calibrateAll(variant.config, mix);
    const ServeSimulator sim(variant, svc, mix);
    BatchMemo warm;
    sim.run(&cal, &warm);
    BatchMemo memo;
    for (const auto &e : warm.entries()) {
        ASSERT_TRUE(e.bundle.residentAfter);
        BatchBundle evicting = e.bundle;
        evicting.residentAfter = false;
        memo.insert(e.key, evicting);
    }
    const std::size_t seeded = memo.entries().size();
    sim.run(&cal, &memo);
    ASSERT_GT(memo.entries().size(), seeded);
    for (std::size_t i = seeded; i < memo.entries().size(); ++i) {
        const BatchBundle &b = memo.entry(static_cast<u32>(i)).bundle;
        EXPECT_GT(b.counters.get("pluto.lut_reload.cold"), 0.0) << i;
        EXPECT_GT(b.reloadNs, 0.0) << i;
        EXPECT_TRUE(b.residentAfter) << i;
    }
}

TEST(ServeSimulatorDeathTest, VerifyModeDetectsACorruptedBundle)
{
    // verify mode re-executes a deterministic sample of hits (the
    // first hit of a run is always sampled) and must abort loudly
    // when the cached bundle no longer matches the oracle.
    const auto variant = testVariant(128);
    auto svc = testService(sim::BatchPolicyKind::Adaptive, 20000.0);
    svc.durationMs = 2.0;
    svc.memo = sim::MemoMode::Verify;
    const auto mix = twoClassMix();
    const auto cal =
        ServeSimulator::calibrateAll(variant.config, mix);
    ServeSimulator sim(variant, svc, mix);
    BatchMemo memo;
    sim.run(&cal, &memo);
    ASSERT_GT(memo.entries().size(), 0u);
    memo.corruptForTests(1.0);
    EXPECT_DEATH(sim.run(&cal, &memo),
                 "memo verify mismatch");
}

TEST(ServeSimulator, OutcomesMatchPinnedGoldens)
{
    // Policy x loop mode x pool size x design; each cell must give
    // the pinned digest under every memo mode.
    const auto mix = twoClassMix();
    std::string got;
    for (const auto &variant : goldenVariants()) {
        const auto cal =
            ServeSimulator::calibrateAll(variant.config, mix);
        for (const auto policy : kPolicies)
            for (const bool closed : {false, true})
                for (const u32 devices : {1u, 8u, 64u}) {
                    const std::string cell =
                        variant.name + "/" +
                        sim::batchPolicyName(policy) + "/" +
                        (closed ? "closed" : "open") + "/" +
                        std::to_string(devices);
                    SCOPED_TRACE(cell);
                    std::string line;
                    for (const auto memo : kMemoModes) {
                        const auto out =
                            ServeSimulator(
                                variant,
                                goldenService(policy, closed,
                                              devices, memo),
                                mix)
                                .run(&cal);
                        EXPECT_GT(out.requests, 0u);
                        const std::string l =
                            cell + " requests=" +
                            std::to_string(out.requests) + " " +
                            outcomeDigest(out) + "\n";
                        if (line.empty())
                            line = l;
                        else
                            EXPECT_EQ(l, line)
                                << sim::memoModeName(memo);
                    }
                    got += line;
                }
    }
    // Fleet-shape pools around a power of two: the dispatch index
    // at 255 and 257 devices is padded, at 256 it is not.
    const auto fleet = goldenVariants().front();
    const auto mix4 = fleetMix();
    const auto cal4 = ServeSimulator::calibrateAll(fleet.config, mix4);
    for (const u32 devices : {255u, 256u, 257u}) {
        const auto out =
            ServeSimulator(fleet, fleetService(devices), mix4)
                .run(&cal4);
        EXPECT_GT(out.requests, 0u);
        got += "fleet/" + fleet.name + "/adaptive/open/" +
               std::to_string(devices) +
               " requests=" + std::to_string(out.requests) + " " +
               outcomeDigest(out) + "\n";
    }
    test::expectGolden("serve_outcomes", got, "serving outcomes");
}

TEST(ServeSimulator, TelemetryMatchesPinnedGoldens)
{
    // --metrics-out and --trace see a pool of P devices whatever the
    // simulator builds internally: the full counter tree (device/*
    // warm-up and batch folds, serve/*) and the per-slot warm-up
    // span count are pinned per design x pool size, and agree across
    // memo modes (misses and verify samples execute with the slot's
    // residency injected).
    const auto mix = twoClassMix();
    auto &reg = obs::Registry::get();
    std::string got;
    for (const auto &variant : goldenVariants()) {
        const auto cal =
            ServeSimulator::calibrateAll(variant.config, mix);
        for (const u32 devices : {1u, 7u, 64u}) {
            const std::string cell =
                variant.name + "/" + std::to_string(devices);
            SCOPED_TRACE(cell);
            std::string line;
            for (const auto memo : kMemoModes) {
                reg.reset();
                reg.enable(true);
                obs::Tracer tracer;
                obs::Tracer::install(&tracer);
                const auto out =
                    ServeSimulator(
                        variant,
                        goldenService(sim::BatchPolicyKind::Adaptive,
                                      false, devices, memo),
                        mix)
                        .run(&cal);
                obs::Tracer::install(nullptr);
                const auto snap = reg.snapshot();
                reg.enable(false);
                reg.reset();

                std::string counters;
                for (const auto &[path, v] : snap.counters())
                    counters += path + "=" + fmtDoubleExact(v) + "\n";
                const std::string trace = tracer.renderJson();
                const std::string warm = "\"name\":\"warmup/";
                u64 spans = 0;
                for (auto at = trace.find(warm);
                     at != std::string::npos;
                     at = trace.find(warm, at + 1))
                    ++spans;
                EXPECT_GT(spans, 0u);
                const std::string l =
                    cell + " outcome=" + outcomeDigest(out) +
                    " counters=" + fnv1aHex(counters) +
                    " warmup_spans=" + std::to_string(spans) + "\n";
                if (line.empty())
                    line = l;
                else
                    EXPECT_EQ(l, line) << sim::memoModeName(memo);
            }
            got += line;
        }
    }
    test::expectGolden("serve_telemetry", got, "serving telemetry");
}

/** @return peak RSS (KiB) of a forked child that runs `fn`. */
long
childPeakRssKb(const std::function<void()> &fn)
{
    const pid_t pid = fork();
    if (pid == 0) {
        fn();
        _exit(0);
    }
    int status = 0;
    rusage ru{};
    EXPECT_EQ(wait4(pid, &status, 0, &ru), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    return ru.ru_maxrss;
}

TEST(ServeSimulator, PoolMemoryDoesNotGrowWithDevices)
{
    // A near-zero-load cell costs its pool build: 256 slots must not
    // pay 256 functional LUT images (2 MiB each on the default
    // geometry) over a 1-slot pool.
    const auto variant = testVariant(128);
    const auto mix = twoClassMix();
    const auto cal = ServeSimulator::calibrateAll(variant.config, mix);
    const auto peakKb = [&](u32 devices) {
        return childPeakRssKb([&]() {
            auto svc = goldenService(sim::BatchPolicyKind::Adaptive,
                                     false, devices,
                                     sim::MemoMode::On);
            svc.durationMs = 0.001;
            ServeSimulator(variant, svc, mix).run(&cal);
        });
    };
    const long one = peakKb(1);
    const long many = peakKb(256);
    EXPECT_LT(many - one, 32 * 1024)
        << "1 slot: " << one << " KiB, 256 slots: " << many << " KiB";
}

// ---- ServiceMetrics against the sample-exact oracle ----

/** One synthetic completion, as ServiceMetrics::onComplete sees it. */
struct SyntheticCompletion
{
    Request req;
    TimeNs finishNs = 0.0;
    PhaseBreakdownNs ph;

    double latMs() const { return (finishNs - req.arriveNs) * 1e-6; }
    double phaseMs(u32 i) const { return ph.ns[i] * 1e-6; }
};

/** Analysis knobs of the synthetic stream: 4 classes with their own
 *  SLOs (class 3 at the service SLO). */
MetricsConfig
syntheticConfig(double tailQuantile)
{
    MetricsConfig cfg;
    cfg.sloMs = 1.5;
    cfg.tailQuantile = tailQuantile;
    cfg.classSloMs = {0.25, 1.0, 4.0, 1.5};
    cfg.classNames = {"c0", "c1", "c2", "c3"};
    return cfg;
}

/** Seeded stream: 3 tenants x 4 classes, latencies log-uniform over
 *  0.01..10 ms (~10 octaves), random five-way phase splits. */
std::vector<SyntheticCompletion>
syntheticStream(std::size_t n, u64 seed)
{
    Rng rng(seed);
    std::vector<SyntheticCompletion> out(n);
    TimeNs at = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        SyntheticCompletion &c = out[i];
        at += rng.uniform(1.0, 2000.0);
        c.req.id = i;
        c.req.tenant = static_cast<u32>(rng.below(3));
        c.req.cls = static_cast<u32>(rng.below(4));
        c.req.arriveNs = at;
        const double latNs = 1e4 * std::exp(rng.uniform() *
                                            std::log(1000.0));
        c.finishNs = at + latNs;
        double w[kPhaseCount], total = 0.0;
        for (u32 p = 0; p < kPhaseCount; ++p)
            total += w[p] = rng.uniform();
        for (u32 p = 0; p < kPhaseCount; ++p)
            c.ph.ns[p] = latNs * w[p] / total;
    }
    return out;
}

/** Per-(tenant, class) sums of a tail population. */
struct OracleGroup
{
    u64 requests = 0;
    double latMs = 0.0;
    double phaseMs[kPhaseCount] = {};

    void add(const SyntheticCompletion &c)
    {
        ++requests;
        latMs += c.latMs();
        for (u32 p = 0; p < kPhaseCount; ++p)
            phaseMs[p] += c.phaseMs(p);
    }
};

/** Per-tenant phase and SLO sums of the oracle. */
struct OracleTenant
{
    double phaseMs[kPhaseCount] = {};
    double sloMs = 0.0;
    u64 sloGood = 0;
    u64 sloViolations = 0;
};

/**
 * The sample-exact fold: keep every completion, sort the latencies,
 * take the exact nearest-rank tail threshold and group every sample
 * at or above it. Also groups the bucket population (samples whose
 * histogram bucket is at or above the threshold sample's bucket) and
 * sums phases and SLO counts in completion order.
 */
struct ExactFold
{
    double phaseMs[kPhaseCount] = {};
    u64 sloGood = 0;
    u64 sloViolations = 0;
    std::map<u32, OracleTenant> tenants;
    double thresholdMs = 0.0;
    i32 thresholdBucket = 0;
    std::map<std::pair<u32, u32>, OracleGroup> exact;
    std::map<std::pair<u32, u32>, OracleGroup> bucketed;

    ExactFold(const std::vector<SyntheticCompletion> &stream,
              const MetricsConfig &cfg)
    {
        for (const auto &c : stream) {
            OracleTenant &t = tenants[c.req.tenant];
            for (u32 p = 0; p < kPhaseCount; ++p) {
                phaseMs[p] += c.phaseMs(p);
                t.phaseMs[p] += c.phaseMs(p);
            }
            const double slo = cfg.classSloMs[c.req.cls];
            if (slo > 0.0) {
                t.sloMs = t.sloMs > 0.0 ? std::min(t.sloMs, slo) : slo;
                const bool good = c.latMs() <= slo;
                t.sloGood += good;
                t.sloViolations += !good;
                sloGood += good;
                sloViolations += !good;
            }
        }
        std::vector<double> lat;
        for (const auto &c : stream)
            lat.push_back(c.latMs());
        std::sort(lat.begin(), lat.end());
        const u64 rank = std::max<u64>(
            1, static_cast<u64>(std::ceil(
                   cfg.tailQuantile * static_cast<double>(lat.size()))));
        thresholdMs = lat[rank - 1];
        thresholdBucket = obs::Histogram::bucketOf(thresholdMs);
        for (const auto &c : stream) {
            const std::pair<u32, u32> key{c.req.tenant, c.req.cls};
            if (c.latMs() >= thresholdMs)
                exact[key].add(c);
            if (obs::Histogram::bucketOf(c.latMs()) >= thresholdBucket)
                bucketed[key].add(c);
        }
    }
};

/** @return |a - b| <= tol * max(|a|, |b|). */
bool
relNear(double a, double b, double tol)
{
    return std::fabs(a - b) <= tol * std::max(std::fabs(a), std::fabs(b));
}

TEST(ServiceMetrics, BucketedTailMatchesTheExactOracle)
{
    const auto stream = syntheticStream(20000, 0x7a11);
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
        const MetricsConfig cfg = syntheticConfig(q);
        ServiceMetrics m(cfg);
        for (const auto &c : stream)
            m.onComplete(c.req, c.finishNs, c.ph);
        const ServiceOutcome out = m.finish(2, 1e6, 1.0, true);
        const ExactFold oracle(stream, cfg);

        // The threshold is the histogram's answer, within one bucket
        // of the exact nearest-rank sample.
        EXPECT_EQ(out.tailThresholdMs, out.latHist.quantile(q));
        EXPECT_TRUE(relNear(out.tailThresholdMs, oracle.thresholdMs,
                            1.0 / 64))
            << "q=" << q;
        EXPECT_EQ(out.latHist.rankBucket(q), oracle.thresholdBucket);

        // The bucketed tail is exactly the bucket population, in
        // (tenant, class) order; tenants come out ascending. The
        // stream's first completions arrive in neither order.
        ASSERT_EQ(out.tail.size(), oracle.bucketed.size()) << "q=" << q;
        for (std::size_t i = 1; i < out.tail.size(); ++i) {
            const TailGroup &a = out.tail[i - 1], &b = out.tail[i];
            EXPECT_LT(std::pair(a.tenant, a.cls),
                      std::pair(b.tenant, b.cls));
        }
        for (std::size_t i = 1; i < out.tenants.size(); ++i)
            EXPECT_LT(out.tenants[i - 1].tenant, out.tenants[i].tenant);
        u64 total = 0;
        for (const TailGroup &g : out.tail) {
            const auto it = oracle.bucketed.find({g.tenant, g.cls});
            ASSERT_NE(it, oracle.bucketed.end());
            const OracleGroup &o = it->second;
            EXPECT_EQ(g.requests, o.requests);
            EXPECT_EQ(g.workload, cfg.classNames[g.cls]);
            EXPECT_TRUE(relNear(g.meanMs * static_cast<double>(
                                               g.requests),
                                o.latMs, 1e-12));
            for (u32 p = 0; p < kPhaseCount; ++p)
                EXPECT_TRUE(relNear(g.phaseMs[p], o.phaseMs[p], 1e-12))
                    << "q=" << q << " phase " << phaseName(p);
            total += g.requests;
        }
        EXPECT_EQ(total, out.tailRequests);

        // The sample-exact population is a subset of it; the extra
        // requests sit within one bucket width below the threshold.
        for (const auto &[key, o] : oracle.exact) {
            const auto it = oracle.bucketed.find(key);
            ASSERT_NE(it, oracle.bucketed.end());
            EXPECT_GE(it->second.requests, o.requests);
        }
        for (const auto &c : stream) {
            const double lat = c.latMs();
            if (obs::Histogram::bucketOf(lat) >= oracle.thresholdBucket &&
                lat < oracle.thresholdMs) {
                EXPECT_LE((oracle.thresholdMs - lat) / oracle.thresholdMs,
                          1.0 / 64);
            }
        }

        // Phase sums and SLO counts are the same additions in the
        // same order: bit-identical.
        for (u32 p = 0; p < kPhaseCount; ++p)
            EXPECT_EQ(out.phaseMs[p], oracle.phaseMs[p]);
        EXPECT_EQ(out.sloGood, oracle.sloGood);
        EXPECT_EQ(out.sloViolations, oracle.sloViolations);
        ASSERT_EQ(out.tenants.size(), oracle.tenants.size());
        for (const TenantSummary &t : out.tenants) {
            const OracleTenant &o = oracle.tenants.at(t.tenant);
            for (u32 p = 0; p < kPhaseCount; ++p)
                EXPECT_EQ(t.phaseMs[p], o.phaseMs[p]);
            EXPECT_EQ(t.sloMs, o.sloMs);
            EXPECT_EQ(t.sloGood, o.sloGood);
            EXPECT_EQ(t.sloViolations, o.sloViolations);
        }
    }
}

TEST(ServiceMetrics, MetricsMemoryDoesNotGrowWithRequests)
{
    // onComplete keeps fixed-size state per (tenant, class, bucket):
    // 2M completions must not cost more than 100k do. Both streams
    // span the same 10 ms of virtual time, so the time series has
    // the same windows.
    const auto peakKb = [](std::size_t n) {
        return childPeakRssKb([n]() {
            ServiceMetrics m(syntheticConfig(0.99));
            Rng rng(n);
            for (std::size_t i = 0; i < n; ++i) {
                Request r;
                r.id = i;
                r.tenant = static_cast<u32>(rng.below(3));
                r.cls = static_cast<u32>(rng.below(4));
                r.arriveNs = static_cast<double>(i) * 1e7 /
                             static_cast<double>(n);
                const double latNs =
                    1e4 * std::exp(rng.uniform() * std::log(1000.0));
                PhaseBreakdownNs ph;
                ph.ns[static_cast<u32>(Phase::Exec)] = latNs;
                m.onComplete(r, r.arriveNs + latNs, ph);
            }
            const auto out = m.finish(1, 0.0, 0.0, true);
            if (out.requests != n)
                _exit(1);
        });
    };
    const long small = peakKb(100000);
    const long large = peakKb(2000000);
    EXPECT_LT(large - small, 16 * 1024)
        << "100k: " << small << " KiB, 2M: " << large << " KiB";
}

TEST(BatchMemo, SignaturesSeparateClassSizeAndResidency)
{
    const u64 base = BatchMemo::signature(3, 17, false);
    EXPECT_EQ(base, BatchMemo::signature(3, 17, false));
    EXPECT_NE(base, BatchMemo::signature(4, 17, false));
    EXPECT_NE(base, BatchMemo::signature(3, 18, false));
    EXPECT_NE(base, BatchMemo::signature(3, 17, true));
}

TEST(ServiceCache, RoundTripsOutcomesBitIdentically)
{
    namespace fs = std::filesystem;
    const auto dir =
        (fs::temp_directory_path() / "pluto_serve_cache_test")
            .string();
    fs::remove_all(dir);

    ServiceOutcome out;
    out.requests = 123;
    out.batches = 17;
    out.meanBatch = 123.0 / 17.0;
    out.makespanMs = 1.0 / 3.0;
    out.throughputRps = 2.0 / 7.0;
    out.meanMs = 0.1;
    out.p50Ms = 0.2;
    out.p95Ms = 0.3;
    out.p99Ms = 0.4;
    out.p999Ms = 0.5;
    out.maxMs = 0.6;
    out.meanQueueDepth = 1.5;
    out.maxQueueDepth = 9.0;
    out.utilization = 0.999;
    out.pjPerRequest = 1e7 / 3.0;
    out.verified = true;
    for (u32 p = 0; p < kPhaseCount; ++p)
        out.phaseMs[p] = 0.01 * (p + 1) / 3.0;
    out.sloMs = 2.0;
    out.sloTarget = 0.99;
    out.sloGood = 100;
    out.sloViolations = 23;
    out.sloAttainment = 100.0 / 123.0;
    out.sloBurnRate = (1.0 - 100.0 / 123.0) / 0.01;
    out.tailQuantile = 0.99;
    out.tailThresholdMs = 0.55;
    out.tailRequests = 2;
    out.seriesIntervalMs = 1.0;
    out.latHist.addCount(0.1, 2);
    out.latHist.add(1.0 / 3.0);
    out.latHist.add(0.6);
    TailGroup tg;
    tg.tenant = 4;
    tg.cls = 1;
    tg.workload = "CRC-8 \"quoted\"";
    tg.requests = 2;
    tg.meanMs = 0.58;
    tg.phaseMs[0] = 0.5;
    tg.phaseMs[2] = 1.0 / 7.0;
    out.tail.push_back(tg);
    SeriesWindow w;
    w.arrivals = 5;
    w.completions = 4;
    w.maxQueueDepth = 3.0;
    w.maxInFlight = 2.0;
    w.busyNs = 1e6 / 3.0;
    w.p50Ms = 0.2;
    w.p99Ms = 0.59;
    out.series.push_back(w);
    out.series.push_back({});
    TenantSummary t;
    t.tenant = 4;
    t.requests = 50;
    t.meanMs = 0.11;
    t.p50Ms = 0.21;
    t.p95Ms = 0.31;
    t.p99Ms = 0.41;
    t.p999Ms = 0.51;
    t.maxMs = 0.61;
    t.phaseMs[1] = 0.07;
    t.phaseMs[4] = 2.0 / 3.0;
    t.sloMs = 2.0;
    t.sloGood = 40;
    t.sloViolations = 10;
    t.sloAttainment = 0.8;
    t.sloBurnRate = 20.0;
    out.tenants.push_back(t);

    {
        ServiceCache cache(dir, "unit");
        cache.load();
        EXPECT_EQ(cache.entries(), 0u);
        EXPECT_TRUE(cache.append("k1", out).empty());
    }
    ServiceCache cache(dir, "unit");
    cache.load();
    EXPECT_EQ(cache.entries(), 1u);
    EXPECT_EQ(cache.corruptLines(), 0u);
    const auto hit = cache.lookup("k1");
    ASSERT_TRUE(hit);
    expectSameOutcome(*hit, out);
    EXPECT_EQ(hit->verified, out.verified);
    EXPECT_EQ(hit->maxQueueDepth, out.maxQueueDepth);
    EXPECT_FALSE(cache.lookup("k2"));

    fs::remove_all(dir);
}

TEST(ServiceCache, KeySeparatesSpecsAndMixes)
{
    runtime::DeviceConfig dev;
    sim::ServiceSpec svc;
    const auto mix = twoClassMix();
    const auto base = ServiceCache::key(dev, svc, mix);
    EXPECT_EQ(base, ServiceCache::key(dev, svc, mix));

    sim::ServiceSpec svc2 = svc;
    svc2.ratePerSec += 1.0;
    EXPECT_NE(base, ServiceCache::key(dev, svc2, mix));

    auto mix2 = mix;
    mix2[1].weight = 0.75;
    EXPECT_NE(base, ServiceCache::key(dev, svc, mix2));

    runtime::DeviceConfig dev2;
    dev2.salp = 64;
    EXPECT_NE(base, ServiceCache::key(dev2, svc, mix));

    // The analysis knobs shape the cached outcome, so they key it.
    sim::ServiceSpec svc3 = svc;
    svc3.sloMs = 2.0;
    EXPECT_NE(base, ServiceCache::key(dev, svc3, mix));
    sim::ServiceSpec svc4 = svc;
    svc4.tailQuantile = 0.95;
    EXPECT_NE(base, ServiceCache::key(dev, svc4, mix));
    sim::ServiceSpec svc5 = svc;
    svc5.timeseriesMs = 0.5;
    EXPECT_NE(base, ServiceCache::key(dev, svc5, mix));
    sim::ServiceSpec svc6 = svc;
    svc6.tenantSkew = 0.99;
    EXPECT_NE(base, ServiceCache::key(dev, svc6, mix));
    auto mix3 = mix;
    mix3[0].sloMs = 1.5;
    EXPECT_NE(base, ServiceCache::key(dev, svc, mix3));

    // Outcomes do not depend on the memo mode, so it does not key a
    // cell: switching modes replays instead of recomputing.
    for (const auto memo : kMemoModes) {
        sim::ServiceSpec svc7 = svc;
        svc7.memo = memo;
        EXPECT_EQ(base, ServiceCache::key(dev, svc7, mix))
            << sim::memoModeName(memo);
    }
}

TEST(ServiceCache, MemoOnCellReplaysUnderMemoOff)
{
    namespace fs = std::filesystem;
    const auto dir =
        (fs::temp_directory_path() / "pluto_serve_memo_key_test")
            .string();
    fs::remove_all(dir);
    const auto scenario = [](const char *memo) {
        std::string err;
        const auto cfg = sim::SimConfig::parse(
            std::string(R"(
[scenario]
name = memo_key
[device]
design = gmc
[workload CRC-8]
elements = 1024
[service s]
rate = 20000
duration_ms = 1
devices = 2
sweep batch = 1, 8
memo = )") + memo + "\n",
            err);
        EXPECT_TRUE(cfg) << err;
        return *cfg;
    };
    campaign::RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    opt.cacheDir = dir;
    const auto onCfg = scenario("on");
    const auto cold = ServiceRunner(onCfg).run(opt);
    ASSERT_EQ(cold.runs.size(), 2u);
    EXPECT_EQ(cold.cacheHits, 0u);

    const auto offCfg = scenario("off");
    const auto replay = ServiceRunner(offCfg).run(opt);
    EXPECT_EQ(replay.cacheHits, replay.runs.size());
    EXPECT_EQ(replay.cacheMisses, 0u);
    EXPECT_EQ(ServiceMetricsSink::renderCsv(offCfg, replay.runs),
              ServiceMetricsSink::renderCsv(onCfg, cold.runs));
    fs::remove_all(dir);
}

} // namespace
} // namespace pluto::serve
