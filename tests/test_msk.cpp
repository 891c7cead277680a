#include "signal/msk.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "common/tag_id.h"
#include "signal/channel.h"
#include "signal/mixer.h"
#include "signal/waveform_codec.h"

namespace anc::signal {
namespace {

std::vector<std::uint8_t> RandomBits(std::size_t n, anc::Pcg32& rng) {
  std::vector<std::uint8_t> bits(n);
  for (auto& b : bits) b = static_cast<std::uint8_t>(rng() & 1);
  return bits;
}

// The per-sample modulation loop the segment table replaced, kept verbatim
// as the reference it must reproduce byte for byte.
Buffer ReferenceModulate(const MskParams& p,
                         std::span<const std::uint8_t> bits) {
  const int s = p.samples_per_bit;
  const double step = M_PI / (2.0 * static_cast<double>(s));
  Buffer out;
  double phase = p.initial_phase;
  for (std::uint8_t bit : bits) {
    const double inc = (bit != 0) ? step : -step;
    for (int i = 0; i < s; ++i) {
      phase += inc;
      out.emplace_back(p.amplitude * std::cos(phase),
                       p.amplitude * std::sin(phase));
    }
  }
  return out;
}

// The branchy scalar detector the vectorizable one replaced: polynomial
// atan2 with early returns, accumulated sample by sample.
double ReferenceAtan2(double y, double x) {
  const double ax = std::fabs(x);
  const double ay = std::fabs(y);
  const double mx = std::fmax(ax, ay);
  const double mn = std::fmin(ax, ay);
  if (mx == 0.0) return 0.0;
  const double a = mn / mx;
  const double s = a * a;
  double r =
      ((-0.0464964749 * s + 0.15931422) * s - 0.327622764) * s * a + a;
  if (ay > ax) r = 1.57079632679489662 - r;
  if (x < 0.0) r = 3.14159265358979324 - r;
  if (y < 0.0) r = -r;
  return r;
}

double ReferenceTravel(std::span<const Sample> y, std::size_t k,
                       std::size_t s) {
  double travel = 0.0;
  for (std::size_t n = k * s; n < k * s + s && n < y.size(); ++n) {
    if (n == 0) continue;
    const double re =
        y[n].real() * y[n - 1].real() + y[n].imag() * y[n - 1].imag();
    const double im =
        y[n].imag() * y[n - 1].real() - y[n].real() * y[n - 1].imag();
    travel += ReferenceAtan2(im, re);
  }
  return travel;
}

bool SameBytes(std::span<const Sample> a, std::span<const Sample> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Sample)) == 0);
}

TagId RandomId(anc::Pcg32& rng) {
  return TagId::FromPayload(static_cast<std::uint16_t>(rng() & 0xFFFF),
                            (std::uint64_t(rng()) << 32) | rng());
}

TEST(MskSegmentTable, MatchesPerSampleLoopByteForByte) {
  anc::Pcg32 rng(31);
  for (int s : {4, 8, 16}) {
    for (const MskParams p : {MskParams{s, 1.0, 0.0}, MskParams{s, 1.0, 0.7},
                              MskParams{s, 2.5, -1.3}}) {
      const WaveformCodec codec(s, 8);
      MskSegmentTable table(p);
      Buffer got;
      for (int trial = 0; trial < 60; ++trial) {
        const auto bits = codec.FrameBits(RandomId(rng));
        const Buffer want = ReferenceModulate(p, bits);
        got.assign(want.size(), Sample{});
        table.ModulateInto(bits, got.data());
        EXPECT_TRUE(SameBytes(got, want))
            << "S=" << s << " phase=" << p.initial_phase << " trial "
            << trial;
        EXPECT_TRUE(SameBytes(MskModulator(p).Modulate(bits), want))
            << "S=" << s << " phase=" << p.initial_phase;
      }
      // Memoization works: 60 frames of 104 bits share a few hundred
      // (phase, bit) segments.
      EXPECT_LT(table.segments(), 1000u) << "S=" << s;
    }
  }
}

TEST(MskDemodulator, TravelMatchesScalarReferenceBitForBit) {
  // Noisy singletons, 2- and 3-mixtures (aligned and offset), residuals
  // after subtracting a noisy reference, and truncated buffers: every
  // per-bit phase travel equals the scalar loop's to the last bit, so
  // every decision does too.
  anc::Pcg32 rng(47);
  std::size_t compared = 0;
  for (int s : {4, 8, 16}) {
    const WaveformCodec codec(s, 8);
    const MskDemodulator demod(s);
    const std::size_t num_bits = codec.frame_bits();
    auto received = [&] {
      return ApplyChannel(codec.Encode(RandomId(rng)), RandomChannel(rng));
    };
    auto noisy = [&](Buffer y, double snr_db) {
      AddAwgn(y, NoisePowerForSnrDb(1.0, snr_db), rng);
      return y;
    };
    for (int trial = 0; trial < 12; ++trial) {
      const double snr = 2.0 + 3.0 * (trial % 5);
      const Buffer a = received(), b = received(), c = received();
      const Buffer pair[] = {a, b};
      const Buffer triple[] = {a, b, c};
      const std::size_t offsets[] = {0, 1, 3};
      Buffer residual = noisy(MixSignals(pair), snr);
      SubtractScaled(residual, noisy(a, snr), Sample{1.0, 0.0});
      const Buffer full = noisy(a, snr);
      std::vector<Buffer> cases = {
          full,
          noisy(MixSignals(pair), snr),
          noisy(MixSignals(triple), snr),
          noisy(MixSignals(triple, offsets), snr),
          residual,
          Buffer(full.begin(), full.begin() + rng.UniformBelow(
                                                  static_cast<std::uint32_t>(
                                                      full.size()))),
          Buffer(full.begin(), full.begin() + 1),
          Buffer{}};
      for (const Buffer& y : cases) {
        std::vector<std::uint8_t> want;
        for (std::size_t k = 0; k < num_bits; ++k) {
          const double travel = ReferenceTravel(y, k, s);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(demod.BitTravel(y, k)),
                    std::bit_cast<std::uint64_t>(travel))
              << "S=" << s << " len=" << y.size() << " bit " << k;
          want.push_back(travel > 0.0 ? 1 : 0);
          ++compared;
        }
        EXPECT_EQ(demod.Demodulate(y, num_bits), want)
            << "S=" << s << " len=" << y.size();
      }
    }
  }
  EXPECT_EQ(compared, 3u * 12u * 8u * 104u);
}

TEST(Msk, ConstantEnvelope) {
  anc::Pcg32 rng(1);
  const MskModulator mod(MskParams{8, 2.5, 0.3});
  const Buffer y = mod.Modulate(RandomBits(64, rng));
  for (const Sample& s : y) {
    EXPECT_NEAR(std::abs(s), 2.5, 1e-9);
  }
}

TEST(Msk, PhaseAdvancesHalfPiPerBit) {
  const MskModulator mod(MskParams{16, 1.0, 0.0});
  const std::uint8_t one_bits[] = {1, 1, 1, 1};
  const Buffer ones = mod.Modulate(one_bits);
  // After k bits of '1', accumulated phase = k * pi/2.
  for (int bit = 1; bit <= 4; ++bit) {
    const Sample s = ones[static_cast<std::size_t>(bit * 16 - 1)];
    const double expected = bit * M_PI / 2.0;
    const double delta =
        std::remainder(std::arg(s) - expected, 2.0 * M_PI);
    EXPECT_NEAR(delta, 0.0, 1e-9) << "bit=" << bit;
  }
}

class MskRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(MskRoundTrip, NoiselessRecovery) {
  const int samples_per_bit = GetParam();
  anc::Pcg32 rng(100 + samples_per_bit);
  const MskModulator mod(MskParams{samples_per_bit, 1.0, 0.0});
  const MskDemodulator demod(samples_per_bit);
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = RandomBits(96, rng);
    const auto decoded = demod.Demodulate(mod.Modulate(bits), bits.size());
    EXPECT_EQ(decoded, bits);
  }
}

INSTANTIATE_TEST_SUITE_P(SamplesPerBit, MskRoundTrip,
                         ::testing::Values(2, 4, 8, 16));

TEST(Msk, RecoveryThroughChannel) {
  // Attenuation and phase rotation must not affect the phase-difference
  // detector.
  anc::Pcg32 rng(7);
  const MskModulator mod(MskParams{8, 1.0, 0.0});
  const MskDemodulator demod(8);
  for (int trial = 0; trial < 20; ++trial) {
    const auto bits = RandomBits(96, rng);
    const ChannelParams ch = RandomChannel(rng, 0.3, 2.0);
    const auto decoded =
        demod.Demodulate(ApplyChannel(mod.Modulate(bits), ch), bits.size());
    EXPECT_EQ(decoded, bits);
  }
}

TEST(Msk, BerLowAtHighSnr) {
  anc::Pcg32 rng(8);
  const MskModulator mod(MskParams{8, 1.0, 0.0});
  const MskDemodulator demod(8);
  int errors = 0, total = 0;
  for (int trial = 0; trial < 50; ++trial) {
    const auto bits = RandomBits(96, rng);
    Buffer y = mod.Modulate(bits);
    AddAwgn(y, NoisePowerForSnrDb(1.0, 15.0), rng);
    const auto decoded = demod.Demodulate(y, bits.size());
    for (std::size_t i = 0; i < bits.size(); ++i) {
      errors += decoded[i] != bits[i];
      ++total;
    }
  }
  EXPECT_LT(static_cast<double>(errors) / total, 0.001);
}

TEST(Msk, BerDegradesMonotonicallyWithNoise) {
  anc::Pcg32 rng(9);
  const MskModulator mod(MskParams{8, 1.0, 0.0});
  const MskDemodulator demod(8);
  auto ber_at = [&](double snr_db) {
    int errors = 0, total = 0;
    for (int trial = 0; trial < 80; ++trial) {
      const auto bits = RandomBits(96, rng);
      Buffer y = mod.Modulate(bits);
      AddAwgn(y, NoisePowerForSnrDb(1.0, snr_db), rng);
      const auto decoded = demod.Demodulate(y, bits.size());
      for (std::size_t i = 0; i < bits.size(); ++i) {
        errors += decoded[i] != bits[i];
        ++total;
      }
    }
    return static_cast<double>(errors) / total;
  };
  const double ber_minus5 = ber_at(-5.0);
  const double ber_5 = ber_at(5.0);
  const double ber_15 = ber_at(15.0);
  EXPECT_GT(ber_minus5, ber_5);
  EXPECT_GT(ber_5, ber_15);
  EXPECT_GT(ber_minus5, 0.05);  // the channel really is bad at -5 dB
}

TEST(Msk, DemodulateShortBuffer) {
  const MskDemodulator demod(8);
  const Buffer empty;
  const auto bits = demod.Demodulate(empty, 4);
  EXPECT_EQ(bits.size(), 4u);  // padded decisions, no crash
}

}  // namespace
}  // namespace anc::signal
