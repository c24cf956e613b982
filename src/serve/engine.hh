/**
 * @file
 * Discrete-event machinery for the serving simulator: the timestamped
 * event heap, the indexed least-loaded dispatch structure, and the
 * arena-backed request pool. They stand in for per-tick O(P) scans
 * of the pool with O(log P) operations, so a service cell costs
 * O((R + E)·log P) for R requests and E events across a P-device
 * pool.
 *
 * Determinism: every structure breaks ties by a total order that is a
 * pure function of simulation state — events by (time, kind, device
 * index), dispatch by (load, device index) — so outcomes reproduce a
 * per-tick polling scan bit for bit and are independent of insertion
 * order (see tests/test_serve.cc and tests/golden/serve_*.golden).
 *
 * Only the event heap uses lazy deletion: superseded events stay in
 * the heap and are discarded when they surface, validated against the
 * current device state; a device has at most one live event (busy:
 * its completion; idle with a queue: its policy wake-up). Dispatch is
 * an exact tournament tree of fixed size, updated in place.
 */

#ifndef PLUTO_SERVE_ENGINE_HH
#define PLUTO_SERVE_ENGINE_HH

#include <algorithm>
#include <bit>
#include <limits>
#include <type_traits>
#include <vector>

#include "common/arena.hh"
#include "common/logging.hh"
#include "serve/loadgen.hh"

namespace pluto::serve
{

/**
 * Event kinds, in tie-break order: completions at time t are handled
 * before policy wake-ups at the same t, matching a polling scan's
 * phase order (completions, then arrivals, then batching decisions).
 */
enum class EvKind : u8
{
    DeviceFree = 0,
    PolicyWake = 1,
};

/** One scheduled simulator event. */
struct Ev
{
    TimeNs t = 0.0;
    EvKind kind = EvKind::DeviceFree;
    u32 dev = 0;
};

/**
 * Binary min-heap of events ordered by (t, kind, dev). Entries are
 * never erased in place: the simulator validates each popped event
 * against device state (freeAt / wakeAt) and drops stale ones.
 */
class EventQueue
{
  public:
    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }
    const Ev &top() const { return heap_.front(); }

    void schedule(TimeNs t, EvKind kind, u32 dev)
    {
        heap_.push_back(Ev{t, kind, dev});
        std::push_heap(heap_.begin(), heap_.end(), After{});
        ++scheduled_;
        if (heap_.size() > peak_)
            peak_ = heap_.size();
    }

    void pop()
    {
        std::pop_heap(heap_.begin(), heap_.end(), After{});
        heap_.pop_back();
    }

    /** Total schedule() calls (telemetry: serve/events/scheduled). */
    u64 scheduled() const { return scheduled_; }
    /** High-water heap size (telemetry: serve/events/heap_peak). */
    u64 peak() const { return peak_; }

  private:
    /** Strict-weak "fires later" order; the heap's top fires first. */
    struct After
    {
        bool operator()(const Ev &a, const Ev &b) const
        {
            if (a.t != b.t)
                return a.t > b.t;
            if (a.kind != b.kind)
                return a.kind > b.kind;
            return a.dev > b.dev;
        }
    };

    std::vector<Ev> heap_;
    u64 scheduled_ = 0;
    u64 peak_ = 0;
};

/**
 * Least-loaded device index: a tournament tree over the pool that
 * picks what a linear scan would — the minimum queue+inFlight load,
 * ties to the lowest device index.
 *
 * The tree has L = next_pow2(P) leaves; node i's children are 2i and
 * 2i+1, the root is node 1 and leaf d is node L + d. Each node holds
 * the winning device of its subtree: the lower load, or on equal load
 * the left child, whose devices all precede the right child's. The
 * root is thus the (load, index) minimum over the pool. Padding
 * leaves d >= P carry the maximum load and sit right of every real
 * device, so they never win. An update replays the log2(L) matches on
 * the device's path to the root; memory is O(P) however many updates
 * arrive.
 */
class LoadIndex
{
  public:
    explicit LoadIndex(u32 devices)
        : leaves_(std::bit_ceil(devices)),
          load_(leaves_, std::numeric_limits<u64>::max()),
          tree_(2 * static_cast<std::size_t>(leaves_))
    {
        PLUTO_ASSERT(devices > 0);
        std::fill_n(load_.begin(), devices, u64{0});
        for (u32 d = 0; d < leaves_; ++d)
            tree_[leaves_ + d] = d;
        for (u32 i = leaves_ - 1; i > 0; --i)
            tree_[i] = match(i);
    }

    /** Record `dev`'s new queue+inFlight load. */
    void update(u32 dev, u64 load)
    {
        load_[dev] = load;
        for (u32 i = leaves_ + dev; i > 1;) {
            i /= 2;
            tree_[i] = match(i);
        }
    }

    /**
     * @return the device the linear scan would pick: minimum load,
     * ties to the lowest index.
     */
    u32 leastLoaded() const { return tree_[1]; }

    /** @return the last load recorded for `dev`. */
    u64 load(u32 dev) const { return load_[dev]; }

  private:
    /** Winner of node `i`'s two children; ties go left. */
    u32 match(u32 i) const
    {
        const u32 l = tree_[2 * i];
        const u32 r = tree_[2 * i + 1];
        return load_[r] < load_[l] ? r : l;
    }

    u32 leaves_;
    /** Current load per leaf; padding leaves hold the maximum. */
    std::vector<u64> load_;
    /** Winning device per node; [1, L) internal, [L, 2L) leaves. */
    std::vector<u32> tree_;
};

/**
 * Chunked FIFO request storage on a ScratchArena slot. All device
 * queues of one service cell share one pool; chunks are recycled
 * through a free list and the backing slot is grow-only, so the
 * steady-state hot loop performs no heap allocation. Chunks are
 * addressed by index, not pointer — the backing buffer may move when
 * the slot grows.
 */
class RequestPool
{
  public:
    /** Null chunk index. */
    static constexpr u32 kNil = 0xffffffffu;
    /** Requests per chunk: 21 × 24 B + link ≈ one 512 B chunk. */
    static constexpr u32 kChunkCap = 21;

    /** One device's FIFO handle (plain data, owned by the caller). */
    struct Queue
    {
        u32 head = kNil;
        u32 tail = kNil;
        /** Consumed prefix of the head chunk. */
        u32 headOff = 0;
        /** Filled prefix of the tail chunk. */
        u32 tailLen = 0;
        u64 size = 0;
    };

    explicit RequestPool(ScratchArena &arena) : arena_(arena) {}

    void pushBack(Queue &q, const Request &r)
    {
        if (q.tail == kNil || q.tailLen == kChunkCap) {
            const u32 c = allocChunk();
            chunk(c).next = kNil;
            if (q.tail == kNil) {
                q.head = q.tail = c;
                q.headOff = 0;
            } else {
                chunk(q.tail).next = c;
                q.tail = c;
            }
            q.tailLen = 0;
        }
        chunk(q.tail).items[q.tailLen++] = r;
        ++q.size;
    }

    const Request &front(const Queue &q) const
    {
        PLUTO_ASSERT(q.size > 0);
        return chunk(q.head).items[q.headOff];
    }

    /** Visit the first `n` queued requests in FIFO order. */
    template <typename Fn>
    void forEach(const Queue &q, u64 n, Fn &&fn) const
    {
        PLUTO_ASSERT(n <= q.size);
        u32 c = q.head;
        u32 off = q.headOff;
        for (u64 i = 0; i < n; ++i) {
            if (off == kChunkCap) {
                c = chunk(c).next;
                off = 0;
            }
            fn(chunk(c).items[off++]);
        }
    }

    /**
     * @return length of the FIFO prefix sharing the front request's
     * class — the batch-eligibility rule.
     */
    u64 eligiblePrefix(const Queue &q) const
    {
        if (q.size == 0)
            return 0;
        const u32 cls = front(q).cls;
        u64 n = 0;
        u32 c = q.head;
        u32 off = q.headOff;
        for (u64 i = 0; i < q.size; ++i) {
            if (off == kChunkCap) {
                c = chunk(c).next;
                off = 0;
            }
            if (chunk(c).items[off++].cls != cls)
                break;
            ++n;
        }
        return n;
    }

    /** Drop the first `n` requests, recycling drained chunks. */
    void popFront(Queue &q, u64 n)
    {
        PLUTO_ASSERT(n <= q.size);
        q.size -= n;
        if (q.size == 0) {
            // Release the whole chain.
            u32 c = q.head;
            while (c != kNil) {
                const u32 next = chunk(c).next;
                freeChunk(c);
                c = next;
            }
            q = Queue{};
            return;
        }
        q.headOff += static_cast<u32>(n);
        while (q.headOff >= kChunkCap) {
            const u32 next = chunk(q.head).next;
            freeChunk(q.head);
            q.head = next;
            q.headOff -= kChunkCap;
        }
    }

  private:
    struct Chunk
    {
        Request items[kChunkCap];
        u32 next = kNil;
    };
    static_assert(std::is_trivially_copyable_v<Request>,
                  "RequestPool stores Requests in raw arena bytes");

    Chunk &chunk(u32 idx) { return base_[idx]; }
    const Chunk &chunk(u32 idx) const { return base_[idx]; }

    u32 allocChunk()
    {
        if (freeHead_ != kNil) {
            const u32 c = freeHead_;
            freeHead_ = chunk(c).next;
            return c;
        }
        const u32 c = count_++;
        base_ = reinterpret_cast<Chunk *>(
            arena_.bytes(ScratchArena::ServeRequests,
                         static_cast<std::size_t>(count_) *
                             sizeof(Chunk))
                .data());
        return c;
    }

    void freeChunk(u32 c)
    {
        chunk(c).next = freeHead_;
        freeHead_ = c;
    }

    ScratchArena &arena_;
    Chunk *base_ = nullptr;
    u32 count_ = 0;
    u32 freeHead_ = kNil;
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_ENGINE_HH
