// Minimum Shift Keying modulator / demodulator.
//
// ANC (Katti et al., SIGCOMM'07) is built on MSK: a bit '1' is a phase
// advance of +pi/2 over one bit interval, a bit '0' a phase retreat of
// -pi/2 (Section II-B of the paper). With S samples per bit the per-sample
// increment is +-pi/(2S); the signal is constant-envelope, which is what
// makes the energy-equation amplitude separation of the mixed signal work.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "signal/complex_buffer.h"

namespace anc::signal {

struct MskParams {
  int samples_per_bit = 8;
  double amplitude = 1.0;
  double initial_phase = 0.0;
};

// One bit interval: writes samples_per_bit samples to `out`, continuing
// from `phase`, and returns the phase at the end of the bit. The phase is
// accumulated sample by sample before each cos/sin, so a bit's samples
// are a pure function of (exact start phase, bit). Every MSK sample in
// the repo is computed here.
double ModulateBit(std::uint8_t bit, double phase, int samples_per_bit,
                   double amplitude, Sample* out);

class MskModulator {
 public:
  explicit MskModulator(MskParams params) : params_(params) {}

  // Emits bits.size() * samples_per_bit complex samples with continuous
  // phase across bit boundaries.
  [[nodiscard]] Buffer Modulate(std::span<const std::uint8_t> bits) const;

  const MskParams& params() const { return params_; }

 private:
  MskParams params_;
};

// Memoized modulation. A frame's phase walk revisits the same exact
// start phases, so every (start phase, bit) segment is computed once by
// ModulateBit and copied afterwards: a few hundred segments serve a whole
// population, instead of two libm calls per sample. Output is byte-
// identical to MskModulator(params).Modulate(bits). Not thread-safe
// (lookups fill the table).
class MskSegmentTable {
 public:
  explicit MskSegmentTable(MskParams params);

  // Writes bits.size() * samples_per_bit samples to `out`.
  void ModulateInto(std::span<const std::uint8_t> bits, Sample* out);

  // Computed (phase, bit) segments so far.
  std::size_t segments() const { return segments_; }

 private:
  static constexpr std::uint32_t kUnset = ~std::uint32_t{0};

  // One exact phase value; next[bit] is the phase node after that bit
  // from here, whose samples sit at samples_[(2 * node + bit) * S].
  struct Node {
    double phase;
    std::uint32_t next[2] = {kUnset, kUnset};
  };

  std::uint32_t NodeFor(double phase);

  MskParams params_;
  std::vector<Node> nodes_;
  std::vector<Sample> samples_;
  std::unordered_map<std::uint64_t, std::uint32_t> node_of_phase_;
  std::size_t segments_ = 0;
};

class MskDemodulator {
 public:
  explicit MskDemodulator(int samples_per_bit)
      : samples_per_bit_(samples_per_bit) {}

  // Non-coherent differential detection: for each bit interval, sums the
  // per-sample differential products y[n] conj(y[n-1]) and decides by the
  // sign of the imaginary part — sign(Im z) equals sign(arg z) for the
  // |arg| < pi/2 rotations MSK produces, so on clean signals this matches
  // per-sample arg() summation exactly while costing one fused
  // multiply-add per sample instead of an atan2. Under noise the products
  // are amplitude-weighted (strong samples count more), which only helps.
  // Amplitude-invariant in the decision, so it works unchanged on
  // channel-scaled and on residual (post-subtraction) signals.
  [[nodiscard]] std::vector<std::uint8_t> Demodulate(
      std::span<const Sample> y, std::size_t num_bits) const;

  // Allocation-free variant for hot paths: clears and refills `bits`.
  void DemodulateInto(std::span<const Sample> y, std::size_t num_bits,
                      std::vector<std::uint8_t>* bits) const;

  // Summed phase travel of bit k (samples past the end of y count as
  // absent); the bit is 1 iff it is positive.
  [[nodiscard]] double BitTravel(std::span<const Sample> y,
                                 std::size_t k) const;

  int samples_per_bit() const { return samples_per_bit_; }

 private:
  int samples_per_bit_;
};

}  // namespace anc::signal
