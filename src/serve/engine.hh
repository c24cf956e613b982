/**
 * @file
 * Discrete-event machinery for the serving simulator: the timestamped
 * event heap, the indexed least-loaded dispatch structure, and the
 * arena-backed request pool. They stand in for per-tick O(P) scans
 * of the pool: an event costs O(log E) on the heap and a dispatch
 * O(P/64) word tests at most, so a service cell costs about
 * O((R + E)·log E) for R requests and E events across a P-device
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
 * its completion; idle with a queue: its policy wake-up). Dispatch
 * buckets devices by load in per-level bitmaps, updated in place.
 */

#ifndef PLUTO_SERVE_ENGINE_HH
#define PLUTO_SERVE_ENGINE_HH

#include <algorithm>
#include <bit>
#include <limits>
#include <set>
#include <type_traits>
#include <utility>
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
 * Least-loaded device index: picks what a linear scan would — the
 * minimum queue+inFlight load, ties to the lowest device index.
 *
 * Devices are bucketed by load. Each load level below kDenseLevels
 * owns a P-bit bitmap of the devices at that level and a count of
 * them; levels are grown on demand up to the highest load recorded.
 * The index also tracks the lowest non-empty level. The pick is the
 * lowest set bit of that level, which is the (load, index) minimum
 * over the pool. An update clears one bit and sets another. A load
 * below the minimum becomes the minimum; the minimum rises only when
 * the updated device was alone on it and rose, and then steps up to
 * the next occupied level. In the serve loop that is one step, since
 * an arrival adds 1 to a least-loaded device and a completion only
 * lowers a load.
 *
 * Loads at or above kDenseLevels go to an exact (load, device) set,
 * which is read only when every dense level is empty. The set keeps
 * arbitrary loads (up to the u64 maximum) exact without sizing the
 * bitmaps by them. In the simulator a load is at most backlog/P + a
 * batch, so the bitmaps cost about one bit per queued request.
 */
class LoadIndex
{
  public:
    /** Loads below this are bucketed in bitmaps, the rest in a set. */
    static constexpr u64 kDenseLevels = u64{1} << 20;

    explicit LoadIndex(u32 devices)
        : words_((devices + 63) / 64), load_(devices, 0)
    {
        PLUTO_ASSERT(devices > 0);
        grow(1);
        for (u32 d = 0; d < devices; ++d)
            set(0, d);
    }

    /** Record `dev`'s new queue+inFlight load. */
    void update(u32 dev, u64 load)
    {
        const u64 old = load_[dev];
        if (old == load)
            return;
        load_[dev] = load;
        if (old < kDenseLevels) {
            bits_[old * words_ + dev / 64] &= ~(u64{1} << (dev % 64));
            --count_[old];
        } else {
            overflow_.erase({old, dev});
        }
        if (load < kDenseLevels) {
            if (load >= count_.size())
                grow(load + 1);
            set(load, dev);
        } else {
            overflow_.insert({load, dev});
        }
        if (load < min_)
            min_ = load;
        else
            while (min_ < count_.size() && count_[min_] == 0)
                ++min_;
    }

    /**
     * @return the device the linear scan would pick: minimum load,
     * ties to the lowest index.
     */
    u32 leastLoaded() const
    {
        if (min_ == count_.size())
            return overflow_.begin()->second;
        const u64 *w = &bits_[min_ * words_];
        u32 i = 0;
        while (w[i] == 0)
            ++i;
        return 64 * i + static_cast<u32>(std::countr_zero(w[i]));
    }

    /** @return the last load recorded for `dev`. */
    u64 load(u32 dev) const { return load_[dev]; }

  private:
    /** Materialize levels [0, levels). */
    void grow(u64 levels)
    {
        bits_.resize(levels * words_, 0);
        count_.resize(levels, 0);
    }

    /** Put `dev` on dense level `level`. */
    void set(u64 level, u32 dev)
    {
        bits_[level * words_ + dev / 64] |= u64{1} << (dev % 64);
        ++count_[level];
    }

    /** 64-bit words per level bitmap. */
    u64 words_;
    /** Current load per device. */
    std::vector<u64> load_;
    /** Level bitmaps, level-major: level l's words are
     *  [l * words_, (l + 1) * words_). */
    std::vector<u64> bits_;
    /** Devices per dense level; its size is the materialized level
     *  count. */
    std::vector<u32> count_;
    /** Lowest non-empty dense level, or count_.size() when every
     *  device sits in overflow_. */
    u64 min_ = 0;
    /** (load, device) of loads >= kDenseLevels. */
    std::set<std::pair<u64, u32>> overflow_;
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
