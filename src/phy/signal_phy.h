// Waveform-level phy: every report segment is synthesized as a real MSK
// waveform through a static per-tag channel, mixed sample-wise, and
// corrupted by AWGN at the reader. Collision records store the actual
// mixed buffers; resolution performs signal subtraction + demodulation +
// CRC exactly as Section II-B / IV-B describe.
//
// References for subtraction are *reader-side* observations: the noisy
// waveform captured in a tag's clean singleton slot, or — matching line 17
// of the paper's pseudo code (S := S + {ID', s'}) — the residual produced
// when the tag was itself recovered from another record. No genie channel
// knowledge is used.
//
// Performance architecture. Every stage below is bit-exact with the
// straightforward per-sample code it replaced; the committed traces and
// the digests in test_signal_trace.cpp pin that.
//   * Synthesis: a tag's waveform is built once, on its first
//     transmission, from a per-phy MSK segment table (one entry per exact
//     (start phase, bit), a few hundred per run), written straight into
//     the tag's cache slot and channel-rotated in place. With zero CFO the
//     rotation is slot-independent, so the cached waveform is the received
//     one for every slot; with CFO the unit frame is cached and only the
//     slot-phase rotation is recomputed per transmission.
//   * Records: mixed waveforms live in slabs carved from uninitialised
//     chunks that are never regrown, copied or zero-filled (each new
//     chunk doubles the capacity), recycled through a free list on
//     release. Record metadata is a HandleWindow (handles are never reused
//     within a run — the tracker and fault ledger key on them) that
//     compacts whenever the last open record is released.
//   * References: one uninitialised arena with a slab-sized slice per
//     tag. A singleton reception is copied into its tag's slice; a
//     resolve writes its residual into per-thread scratch, copied in only
//     when it becomes the tag's reference.
//   * The cache, the arena and the chunks are parked for the next phy when
//     this one is destroyed (one spare block per role), so consecutive
//     runs do not re-fault pages the allocator gave back to the kernel.
//   * Demodulation: per bit, the S phase steps are computed branch-free
//     into a local block (vectorized) and summed in sample order.
//   * Mixing, noise and resolve run over reusable scratch; after warm-up
//     an observed slot and a resolve perform no heap allocation
//     (anc_alloc_tests enforces it for FCAT-2 rounds).
//   * TryResolveBatch optionally fans requests out to a persistent worker
//     pool (demod_pool_threads). Each resolve is a pure function of the
//     record and the references frozen at batch entry, so workers decode
//     in parallel and the results are folded back *in request order* —
//     byte-identical traces at any pool size, the same discipline as the
//     runner's per-run merge.
//
// Per-stage cost of one observed slot, as a share of the per-slot total
// before this layout (FCAT-2 at N = 150/300/450, 25 dB; DESIGN.md):
//
//   stage                           before   after
//   first-transmission synthesis     34.9%    8.0%
//   AWGN                             22.3%   24.3%   same code
//   mixing                           11.7%    9.1%
//   demodulation                     10.0%    5.9%
//   record + reference copy           8.9%    3.3%
//   resolve                          12.2%    9.2%
//   total                           100%     60.8%
//
// Note on lambda: with a truly static channel, direct subtraction can peel
// mixtures of any order until accumulated noise wins; lambda here is a
// decoder-capability cap (max_mixture), mirroring the paper's parameter
// lambda, with 0 meaning "let the signal processing decide".
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "phy/phy.h"
#include "signal/anc_resolver.h"
#include "signal/channel.h"
#include "signal/msk.h"
#include "signal/waveform_codec.h"

namespace anc::phy {

struct SignalPhyConfig {
  int samples_per_bit = 8;
  int preamble_bits = 8;
  double snr_db = 20.0;        // reader front-end SNR for a unit-gain tag
  double min_gain = 0.6;       // per-tag channel attenuation range
  double max_gain = 1.4;
  unsigned max_mixture = 0;    // lambda cap; 0 = no cap (signal decides)
  anc::signal::SubtractionMode subtraction =
      anc::signal::SubtractionMode::kDirect;
  // Residual slot-synchronization error: each transmission starts up to
  // this many samples late, drawn uniformly per transmission. Section
  // II-B argues reader-driven synchronization keeps this near zero; the
  // jitter ablation quantifies what happens when it is not.
  unsigned max_timing_jitter_samples = 0;
  // Residual carrier-frequency offset per tag, uniform in [-cfo, +cfo]
  // rad/sample, fixed per tag for the run.
  double max_cfo_per_sample = 0.0;
  // Capture effect: attempt to demodulate a collision slot directly. When
  // one constituent dominates (high SIR), MSK phase-difference detection
  // locks onto it and the CRC validates — the reader learns that ID *now*
  // and the stored record needs one fewer later singleton. The paper's
  // model ignores capture; enabling it is a beyond-paper ablation
  // (bench_capture).
  bool enable_capture = false;
  // Intra-run demodulation worker pool for TryResolveBatch: 0 = resolve
  // on the calling thread (default). Any value produces byte-identical
  // results; the pool only changes wall-clock time.
  unsigned demod_pool_threads = 0;
};

class SignalPhy final : public PhyInterface {
 public:
  SignalPhy(std::span<const TagId> population, SignalPhyConfig config,
            anc::Pcg32 rng);
  ~SignalPhy() override;

  void ObserveBatch(const SlotBatch& batch,
                    std::span<SlotObservation> out) override;

  void TryResolveBatch(std::span<const ResolveRequest> requests,
                       std::span<std::optional<TagId>> out) override;

  void ReleaseRecord(RecordHandle record) override;

  [[nodiscard]] std::size_t OpenRecords() const override {
    return open_records_;
  }

  // Test hook: the reference waveform currently held for a tag (empty if
  // the reader has not received it cleanly yet).
  [[nodiscard]] std::span<const anc::signal::Sample> ReferenceFor(
      std::uint32_t tag) const {
    return {ref_arena_.get() + slab_samples_ * tag, ref_length_[tag]};
  }

 private:
  static constexpr std::uint32_t kNoSlab = ~std::uint32_t{0};
  // Record chunk k holds kFirstChunkSlabs << k slabs, so a run that
  // peaks at P open records allocates O(log P) chunks.
  static constexpr std::uint32_t kFirstChunkSlabs = 8;

  struct Record {
    std::uint32_t slab = kNoSlab;       // slab index (SlabData)
    std::uint32_t length = 0;           // valid samples in the slab
    std::uint32_t mixture_order = 0;    // ground truth, only for the cap
    bool open = false;
  };

  // Per-thread resolve scratch (index 0 = calling thread, 1.. = pool
  // workers): reference views and the residual/bit buffers, reused.
  struct ResolveScratch {
    std::vector<std::span<const anc::signal::Sample>> refs;
    anc::signal::ResolveResult result;
  };

  class DemodPool;

  // The cached waveform for `tag`: channel-applied (slot-invariant) when
  // the tag has zero CFO, the unit MSK frame otherwise.
  std::span<const anc::signal::Sample> CachedWaveform(std::uint32_t tag);
  // The as-received waveform of one transmission, as a view either into
  // the cache or into synth_pool_[pool_index] (CFO path).
  std::span<const anc::signal::Sample> ReceivedWaveform(
      std::uint32_t tag, std::uint64_t slot_index, std::size_t pool_index);

  void ObserveOne(std::uint64_t slot_index,
                  std::span<const std::uint32_t> participants,
                  SlotObservation* obs);
  // Whether a request gets a resolve attempt: its record is open and
  // within the mixture cap and every known participant has a reference.
  [[nodiscard]] bool Attemptable(const ResolveRequest& request) const;
  // Subtracts the request's references from its record into
  // scratch->result and decodes the residual. Thread-safe: reads only
  // the record slabs and references, which stay fixed during a batch.
  [[nodiscard]] std::optional<TagId> Demodulate(
      const ResolveRequest& request, ResolveScratch* scratch) const;
  // The sequential side of a decoded request: bookkeeping rejects and
  // the reference-store write. `residual` is the request's residual, or
  // null to have it recomputed.
  [[nodiscard]] std::optional<TagId> Fold(
      const ResolveRequest& request, const std::optional<TagId>& id,
      const anc::signal::Buffer* residual);

  std::uint32_t AcquireSlab();
  [[nodiscard]] anc::signal::Sample* SlabData(std::uint32_t slab) const {
    // Chunk k starts at slab kFirstChunkSlabs * (2^k - 1).
    const int k = std::bit_width(slab / kFirstChunkSlabs + 1) - 1;
    const std::uint32_t first = kFirstChunkSlabs * ((1u << k) - 1);
    return slab_chunks_[static_cast<std::size_t>(k)].get() +
           static_cast<std::size_t>(slab - first) * slab_samples_;
  }
  [[nodiscard]] std::span<const anc::signal::Sample> MixedOf(
      const Record& record) const {
    return {SlabData(record.slab), record.length};
  }
  // Stores `wave` as tag's reference (it fits: at most slab_samples_).
  void SetReference(std::uint32_t tag,
                    std::span<const anc::signal::Sample> wave);
  // Index of `id` in the population, or nullopt if no tag has it.
  [[nodiscard]] std::optional<std::uint32_t> IndexOf(const TagId& id) const;

  // Owns a raw, uninitialised block of samples (waveform cache, record
  // chunks, reference arena): every sample is written before it is read.
  // A released block is parked for reuse by later phys (SpareBlocks).
  class SpareBlocks;
  static constexpr std::size_t kWaveCacheRole = 0;
  static constexpr std::size_t kReferenceRole = 1;
  static constexpr std::size_t kFirstChunkRole = 2;  // + chunk index
  struct SampleBlockFree {
    std::size_t role;
    std::size_t samples;
    void operator()(anc::signal::Sample* p) const;
  };
  using SampleBlock =
      std::unique_ptr<anc::signal::Sample, SampleBlockFree>;
  static SampleBlock AllocateSamples(std::size_t role, std::size_t samples);

  std::span<const TagId> population_;
  // Population index + 1 of each tag, hashed by ID digest with linear
  // probing at load <= 1/2 (0 = empty slot), for resolve lookups.
  std::vector<std::uint32_t> id_slots_;
  SignalPhyConfig config_;
  anc::Pcg32 rng_;
  anc::signal::WaveformCodec codec_;
  anc::signal::MskSegmentTable segments_;
  anc::signal::AncResolver resolver_;
  std::vector<anc::signal::ChannelParams> channels_;
  HandleWindow<Record> records_;
  std::size_t open_records_ = 0;
  double noise_power_ = 0.0;

  std::size_t frame_samples_ = 0;
  std::size_t slab_samples_ = 0;  // frame plus the largest timing jitter

  // Waveform cache (see header comment): n_tags x frame_samples_ samples.
  // A tag's slice is written on its first transmission (wave_cached_).
  SampleBlock wave_cache_;
  std::vector<std::uint8_t> wave_cached_;

  // Reference arena: n_tags x slab_samples_ samples; ref_length_[tag]
  // valid samples (0 = no reference yet).
  SampleBlock ref_arena_;
  std::vector<std::uint32_t> ref_length_;

  // Record slab arena: geometrically growing chunks, never moved.
  std::vector<SampleBlock> slab_chunks_;
  std::vector<std::uint32_t> free_slabs_;
  std::uint32_t slab_count_ = 0;

  // Per-slot scratch (reused; no per-slot allocation after warm-up).
  std::vector<std::span<const anc::signal::Sample>> mix_views_;
  std::vector<std::size_t> mix_offsets_;
  std::vector<anc::signal::Buffer> synth_pool_;  // CFO-path synthesis
  anc::signal::Buffer mix_scratch_;
  std::vector<std::uint8_t> bits_scratch_;

  // Resolve scratch: per-request attempt flags and decoded IDs of the
  // current batch, and one ResolveScratch per thread.
  std::vector<std::uint8_t> attempted_;
  std::vector<std::optional<TagId>> decoded_;
  std::vector<ResolveScratch> resolve_scratch_;
  std::unique_ptr<DemodPool> pool_;
};

}  // namespace anc::phy
