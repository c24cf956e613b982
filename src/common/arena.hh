/**
 * @file
 * Grow-only scratch buffers for the simulator's functional hot paths.
 *
 * A ScratchArena owns one grow-only buffer per named slot. Hot loops
 * that previously allocated a fresh std::vector per call (query row
 * snapshots, sweep-emulation FF buffers, serve request queues) borrow
 * a slot instead: the buffer grows to the high-water mark once and is
 * then reused allocation-free for the rest of the campaign.
 *
 * Ownership rules:
 *  - An arena is single-threaded state. Each worker thread of a
 *    campaign (campaign::runCampaign) owns exactly one arena
 *    and passes it to every device it constructs via
 *    DeviceConfig::arena; a device built without one falls back to a
 *    private arena, so standalone use needs no setup.
 *  - A borrowed span is only valid until the next borrow of the same
 *    slot. Slots may be shared, but only by call sites that never
 *    nest (the owners are listed below); a caller must not hold a
 *    borrowed span across a call that could borrow the same slot.
 */

#ifndef PLUTO_COMMON_ARENA_HH
#define PLUTO_COMMON_ARENA_HH

#include <array>
#include <cstddef>
#include <span>
#include <vector>

#include "common/types.hh"

namespace pluto
{

/** Per-worker grow-only scratch buffers (see file comment). */
class ScratchArena
{
  public:
    /** Scratch slots; each names its unique owning call site. */
    enum Slot : u32
    {
        /** QueryEngine::queryViaSweep FF/gated-row-buffer image. */
        SweepFf = 0,
        /** QueryEngine::queryViaSweep activated LUT row image. */
        SweepLutRow,
        /** serve::RequestPool chunked per-device queue storage. */
        ServeRequests,
        kSlotCount,
    };

    /**
     * Borrow `n` bytes of slot `s`. Grow-only: the backing buffer
     * never shrinks, so steady-state calls never allocate. Contents
     * are unspecified (callers overwrite or clear as needed).
     */
    std::span<u8> bytes(Slot s, std::size_t n)
    {
        auto &buf = bytes_[s];
        if (buf.size() < n)
            buf.resize(n);
        return {buf.data(), n};
    }

    /** @return current capacity of slot `s` in bytes (tests). */
    std::size_t capacity(Slot s) const { return bytes_[s].size(); }

  private:
    std::array<std::vector<u8>, kSlotCount> bytes_;
};

} // namespace pluto

#endif // PLUTO_COMMON_ARENA_HH
