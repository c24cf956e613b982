/**
 * @file
 * Chunked host staging and verification for the batch workloads. A
 * workload generates each input chunk just before writing it, and
 * checks each output chunk as it reads it back against a reference
 * it recomputes (replaying a saved copy of its seeded Rng), so a
 * cell's host memory is one chunk buffer instead of O(elements)
 * vectors. Host transfers are not charged, so chunking changes no
 * simulated statistic.
 */

#ifndef PLUTO_WORKLOADS_CHUNKED_HH
#define PLUTO_WORKLOADS_CHUNKED_HH

#include <algorithm>
#include <span>
#include <vector>

#include "common/bitvec.hh"
#include "common/logging.hh"
#include "runtime/device.hh"

namespace pluto::workloads
{

/**
 * Row-aligned chunks over the vectors of one shape (element count
 * and slot width). A chunk is at most one SALP wave of rows, and its
 * u64 buffer is at most 1 MiB but always holds one row.
 */
class Chunker
{
  public:
    static constexpr u64 maxBufferBytes = u64(1) << 20;

    Chunker(runtime::PlutoDevice &dev, const runtime::VecHandle &like)
        : dev_(dev), elements_(like.elements), width_(like.width)
    {
        const u64 perRow =
            elementsPerBytes(dev.geometry().rowBytes, like.width);
        const u64 maxRows =
            std::max<u64>(1, maxBufferBytes / sizeof(u64) / perRow);
        buf_.resize(std::min(
            perRow * std::min<u64>(dev.salp(), maxRows), elements_));
    }

    /** @return elements per chunk (the last chunk may be shorter). */
    u64 chunkElements() const { return buf_.size(); }

    /**
     * Stage `v` one chunk at a time: fill(first, chunk) generates the
     * values of elements [first, first + chunk.size()), which are
     * then written at `first`.
     */
    template <class Fill>
    void
    write(const runtime::VecHandle &v, Fill &&fill)
    {
        checkShape(v);
        for (u64 first = 0; first < elements_; first += buf_.size()) {
            const auto chunk = chunkAt(first);
            fill(first, chunk);
            dev_.writeAt(v, first, chunk);
        }
    }

    /**
     * Read `v` back one chunk at a time; check(first, chunk) returns
     * whether the chunk's values are the expected ones.
     * @return true iff every chunk passed (stops at the first that
     * does not).
     */
    template <class Check>
    bool
    verify(const runtime::VecHandle &v, Check &&check)
    {
        checkShape(v);
        for (u64 first = 0; first < elements_; first += buf_.size()) {
            const auto chunk = chunkAt(first);
            dev_.readAt(v, first, chunk);
            if (!check(first, std::span<const u64>(chunk)))
                return false;
        }
        return true;
    }

  private:
    std::span<u64>
    chunkAt(u64 first)
    {
        return std::span<u64>(buf_).first(
            std::min<u64>(buf_.size(), elements_ - first));
    }

    void
    checkShape(const runtime::VecHandle &v) const
    {
        PLUTO_ASSERT(v.elements == elements_ && v.width == width_);
    }

    runtime::PlutoDevice &dev_;
    u64 elements_;
    u32 width_;
    std::vector<u64> buf_;
};

} // namespace pluto::workloads

#endif // PLUTO_WORKLOADS_CHUNKED_HH
