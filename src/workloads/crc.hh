/**
 * @file
 * Host reference of the CRC-8/16/32 workloads: the table-driven CRC
 * recurrence over a 256-entry table built from the bit-serial rule.
 * It is built here rather than taken from runtime/lut_library, so the
 * oracle stays independent of the LUT the device queries.
 */

#ifndef PLUTO_WORKLOADS_CRC_HH
#define PLUTO_WORKLOADS_CRC_HH

#include <array>
#include <span>

#include "common/types.hh"

namespace pluto::workloads
{

/**
 * CRC-8 (polynomial 0x07, init 0), CRC-16/CCITT-FALSE (0x1021, init
 * 0xffff) and CRC-32 (reflected 0xEDB88320, init 0xffffffff, no final
 * XOR), one byte per step.
 */
class CrcReference
{
  public:
    /** `width` must be 8, 16 or 32. */
    explicit CrcReference(u32 width);

    /** @return the initial CRC register value. */
    u32 init() const { return init_; }

    /** @return the CRC register after absorbing `byte`. */
    u32
    step(u32 crc, u8 byte) const
    {
        switch (width_) {
          case 8:
            return table_[(crc ^ byte) & 0xff];
          case 16:
            return ((crc << 8) ^ table_[((crc >> 8) ^ byte) & 0xff]) &
                   0xffff;
          default:
            return (crc >> 8) ^ table_[(crc ^ byte) & 0xff];
        }
    }

    /** @return the CRC of `bytes` from the initial value. */
    u32 of(std::span<const u8> bytes) const;

  private:
    u32 width_;
    u32 init_;
    std::array<u32, 256> table_;
};

} // namespace pluto::workloads

#endif // PLUTO_WORKLOADS_CRC_HH
