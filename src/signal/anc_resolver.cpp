#include "signal/anc_resolver.h"

#include <cmath>

#include "signal/energy_estimator.h"

namespace anc::signal {
namespace {

// Solves the m x m complex linear system G x = b in place (Gaussian
// elimination with partial pivoting). m is at most lambda - 1, i.e. tiny.
bool SolveComplexSystem(std::vector<std::vector<Sample>>& g,
                        std::vector<Sample>& b) {
  const std::size_t m = b.size();
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < m; ++row) {
      if (std::abs(g[row][col]) > std::abs(g[pivot][col])) pivot = row;
    }
    if (std::abs(g[pivot][col]) < 1e-12) return false;
    std::swap(g[col], g[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < m; ++row) {
      const Sample factor = g[row][col] / g[col][col];
      for (std::size_t k = col; k < m; ++k) g[row][k] -= factor * g[col][k];
      b[row] -= factor * b[col];
    }
  }
  for (std::size_t col = m; col-- > 0;) {
    Sample acc = b[col];
    for (std::size_t k = col + 1; k < m; ++k) acc -= g[col][k] * b[k];
    b[col] = acc / g[col][col];
  }
  return true;
}

}  // namespace

void AncResolver::SubtractReferences(
    std::span<const Sample> mixed,
    std::span<const std::span<const Sample>> references,
    Buffer* residual_out) const {
  Buffer& residual = *residual_out;
  residual.assign(mixed.begin(), mixed.end());
  switch (mode_) {
    case SubtractionMode::kDirect: {
      for (const auto ref : references) {
        SubtractScaled(residual, ref, Sample{1.0, 0.0});
      }
      break;
    }
    case SubtractionMode::kLeastSquares: {
      const std::size_t m = references.size();
      std::vector<std::vector<Sample>> gram(m, std::vector<Sample>(m));
      std::vector<Sample> rhs(m);
      for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < m; ++j) {
          gram[i][j] = InnerProduct(references[j], references[i]);
        }
        rhs[i] = InnerProduct(mixed, references[i]);
      }
      if (SolveComplexSystem(gram, rhs)) {
        for (std::size_t i = 0; i < m; ++i) {
          SubtractScaled(residual, references[i], rhs[i]);
        }
      } else {
        // Degenerate references: fall back to direct subtraction.
        for (const auto ref : references) {
          SubtractScaled(residual, ref, Sample{1.0, 0.0});
        }
      }
      break;
    }
    case SubtractionMode::kEnergy: {
      // Paper's two-signal method: estimate A (stronger) and B (weaker)
      // from the mixture's energy statistics, rescale the reference to
      // whichever estimated amplitude it is closer to, then subtract.
      // Phase alignment still comes from the reference waveform itself.
      if (references.size() != 1) {
        residual.clear();
        break;
      }
      const auto ref = references[0];
      const AmplitudeEstimate est = EstimateTwoAmplitudes(residual);
      if (!est.valid) {
        residual.clear();
        break;
      }
      const double ref_amp = std::sqrt(MeanPower(ref));
      if (ref_amp <= 0.0) {
        residual.clear();
        break;
      }
      const double target = (std::abs(est.stronger - ref_amp) <
                             std::abs(est.weaker - ref_amp))
                                ? est.stronger
                                : est.weaker;
      SubtractScaled(residual, ref, Sample{target / ref_amp, 0.0});
      break;
    }
  }
}

ResolveResult AncResolver::ResolveLast(
    std::span<const Sample> mixed,
    std::span<const std::span<const Sample>> references,
    std::size_t num_bits) const {
  ResolveResult result;
  ResolveLastInto(mixed, references, num_bits, &result);
  return result;
}

void AncResolver::ResolveLastInto(
    std::span<const Sample> mixed,
    std::span<const std::span<const Sample>> references,
    std::size_t num_bits, ResolveResult* result) const {
  result->demodulated = false;
  result->residual_power = 0.0;
  result->bits.clear();
  SubtractReferences(mixed, references, &result->residual);
  if (result->residual.empty()) return;
  result->residual_power = MeanPower(result->residual);
  demod_.DemodulateInto(result->residual, num_bits, &result->bits);
  result->demodulated = true;
}

ResolveResult AncResolver::ResolveLast(std::span<const Sample> mixed,
                                       std::span<const Buffer> references,
                                       std::size_t num_bits) const {
  std::vector<std::span<const Sample>> views(references.begin(),
                                             references.end());
  return ResolveLast(mixed, views, num_bits);
}

}  // namespace anc::signal
