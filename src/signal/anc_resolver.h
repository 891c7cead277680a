// Analog-network-coding collision resolution (Sections II-B and IV-B).
//
// The reader holds the mixed waveform of a collision slot and, over time,
// reference waveforms of (k-1) of its constituents captured in singleton
// slots. Tags are static, so a reference arrives through the same channel
// in both slots; subtracting the references leaves the last constituent,
// which is demodulated like a singleton and validated by CRC.
//
// Three subtraction strategies are provided:
//   kDirect        y - sum(ref): pure subtraction, exact with a perfectly
//                  static channel (the RFID advantage the paper highlights
//                  over the Alice-Bob case).
//   kLeastSquares  joint complex least-squares fit of per-reference scales
//                  before subtracting; robust to small gain/phase drift
//                  between the slots.
//   kEnergy        the paper's Section II-B method: estimate constituent
//                  amplitudes from the mixture's energy statistics and
//                  rescale the reference accordingly (2-collisions only).
//
// ResolveLast is const and reads only its arguments, so independent
// requests may run concurrently — the property SignalPhy's demodulation
// pool relies on.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "signal/complex_buffer.h"
#include "signal/msk.h"

namespace anc::signal {

enum class SubtractionMode { kDirect, kLeastSquares, kEnergy };

struct ResolveResult {
  bool demodulated = false;            // a residual was produced and decoded
  std::vector<std::uint8_t> bits;      // decoded residual bits (caller
                                       // validates CRC / preamble)
  double residual_power = 0.0;         // mean power left after subtraction
  Buffer residual;                     // the extracted constituent signal;
                                       // reusable as a reference to resolve
                                       // further records (paper pseudo code
                                       // line 17: S := S + {ID', s'})
};

class AncResolver {
 public:
  AncResolver(SubtractionMode mode, int samples_per_bit)
      : mode_(mode), demod_(samples_per_bit) {}

  // Subtracts `references` from `mixed` and demodulates the residual into
  // `num_bits` bits. kEnergy supports exactly one reference.
  [[nodiscard]] ResolveResult ResolveLast(
      std::span<const Sample> mixed,
      std::span<const std::span<const Sample>> references,
      std::size_t num_bits) const;

  // Allocation-free variant: refills result->bits and result->residual,
  // reusing their capacity, so a caller that reuses one ResolveResult
  // (per thread) allocates nothing once it is warm.
  void ResolveLastInto(std::span<const Sample> mixed,
                       std::span<const std::span<const Sample>> references,
                       std::size_t num_bits, ResolveResult* result) const;

  // Convenience overload for owned buffers (tests and benches).
  [[nodiscard]] ResolveResult ResolveLast(std::span<const Sample> mixed,
                                          std::span<const Buffer> references,
                                          std::size_t num_bits) const;

  SubtractionMode mode() const { return mode_; }

 private:
  // Writes mixed minus the references into *residual_out (left empty
  // when the mode cannot subtract them).
  void SubtractReferences(std::span<const Sample> mixed,
                          std::span<const std::span<const Sample>> references,
                          Buffer* residual_out) const;

  SubtractionMode mode_;
  MskDemodulator demod_;
};

}  // namespace anc::signal
