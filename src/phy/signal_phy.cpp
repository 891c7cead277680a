#include "phy/signal_phy.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "signal/mixer.h"

namespace anc::phy {

using anc::signal::Buffer;
using anc::signal::Sample;

// Persistent worker pool for TryResolveBatch. Workers pull task indices
// from a shared atomic counter; the Run() caller blocks until every task
// of the current generation completed, which (through the mutex handshake)
// also publishes the workers' writes back to the caller before it folds
// the outcomes in request order.
class SignalPhy::DemodPool {
 public:
  explicit DemodPool(unsigned threads) : threads_(threads) {
    workers_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
      workers_.emplace_back([this, w] { WorkerMain(w); });
    }
  }

  ~DemodPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_work_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  unsigned threads() const { return threads_; }

  // fn(task_index, worker_index) with worker_index in [1, threads]; the
  // calling thread only waits (worker slot 0 stays the sequential path's).
  void Run(std::size_t n_tasks,
           const std::function<void(std::size_t, unsigned)>& fn) {
    std::unique_lock<std::mutex> lock(mu_);
    fn_ = &fn;
    n_tasks_ = n_tasks;
    next_.store(0, std::memory_order_relaxed);
    done_workers_ = 0;
    ++generation_;
    cv_work_.notify_all();
    cv_done_.wait(lock, [this] { return done_workers_ == threads_; });
    fn_ = nullptr;
  }

 private:
  void WorkerMain(unsigned worker) {
    std::uint64_t seen_generation = 0;
    for (;;) {
      const std::function<void(std::size_t, unsigned)>* fn = nullptr;
      std::size_t n_tasks = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_work_.wait(lock, [&] {
          return stop_ || generation_ != seen_generation;
        });
        if (stop_) return;
        seen_generation = generation_;
        fn = fn_;
        n_tasks = n_tasks_;
      }
      for (;;) {
        const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
        if (i >= n_tasks) break;
        (*fn)(i, worker + 1);
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++done_workers_;
      }
      cv_done_.notify_one();
    }
  }

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t, unsigned)>* fn_ = nullptr;
  std::size_t n_tasks_ = 0;
  std::atomic<std::size_t> next_{0};
  std::uint64_t generation_ = 0;
  unsigned done_workers_ = 0;
  bool stop_ = false;
};

// Sample blocks released by one SignalPhy, kept for the next. A run's
// waveform cache, reference arena and record chunks come to megabytes,
// all freed when the run ends; glibc then often unmaps or trims that
// memory, and the next run faults every page back in (about 15% of a
// signal-fcat slot). Each block role keeps its largest released block;
// a later request of that role reuses it when it is large enough, so the
// process holds at most one spare per role and the largest run's
// footprint bounds the resident set.
class SignalPhy::SpareBlocks {
 public:
  static SpareBlocks& Instance() {
    static SpareBlocks* spares = new SpareBlocks;  // outlives every phy
    return *spares;
  }

  SampleBlock Take(std::size_t role, std::size_t samples) {
    Spare spare;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (role < kRoles) std::swap(spare, spares_[role]);
    }
    if (spare.block != nullptr && spare.samples >= samples) {
      return {spare.block, SampleBlockFree{role, spare.samples}};
    }
    if (spare.block != nullptr) Free(spare);
    return {std::allocator<Sample>().allocate(samples),
            SampleBlockFree{role, samples}};
  }

  void Give(std::size_t role, Sample* block, std::size_t samples) {
    Spare spare{block, samples};
    if (role < kRoles) {
      std::lock_guard<std::mutex> lock(mu_);
      if (spares_[role].samples < samples) std::swap(spare, spares_[role]);
    }
    if (spare.block != nullptr) Free(spare);
  }

 private:
  static constexpr std::size_t kRoles = 2 + 32;  // two arenas, 32 chunks
  struct Spare {
    Sample* block = nullptr;
    std::size_t samples = 0;
  };
  static void Free(const Spare& spare) {
    std::allocator<Sample>().deallocate(spare.block, spare.samples);
  }

  std::mutex mu_;
  Spare spares_[kRoles];
};

void SignalPhy::SampleBlockFree::operator()(Sample* p) const {
  SpareBlocks::Instance().Give(role, p, samples);
}

SignalPhy::SampleBlock SignalPhy::AllocateSamples(std::size_t role,
                                                  std::size_t samples) {
  return SpareBlocks::Instance().Take(role, samples);
}

SignalPhy::SignalPhy(std::span<const TagId> population,
                     SignalPhyConfig config, anc::Pcg32 rng)
    : population_(population),
      config_(config),
      rng_(rng),
      codec_(config.samples_per_bit, config.preamble_bits),
      segments_(codec_.modulation()),
      resolver_(config.subtraction, config.samples_per_bit) {
  id_slots_.assign(std::bit_ceil(2 * population.size() + 1), 0);
  const std::size_t mask = id_slots_.size() - 1;
  for (std::uint32_t i = 0; i < population.size(); ++i) {
    std::size_t h = population[i].Digest() & mask;
    while (id_slots_[h] != 0) h = (h + 1) & mask;
    id_slots_[h] = i + 1;
  }
  channels_.reserve(population.size());
  for (std::size_t i = 0; i < population.size(); ++i) {
    auto channel =
        anc::signal::RandomChannel(rng_, config_.min_gain, config_.max_gain);
    if (config_.max_cfo_per_sample > 0.0) {
      channel.cfo_per_sample =
          config_.max_cfo_per_sample * (2.0 * rng_.UniformDouble() - 1.0);
    }
    channels_.push_back(channel);
  }
  // Unit-amplitude MSK has power 1; the SNR is referenced to a unit-gain
  // tag at the reader front-end.
  noise_power_ = anc::signal::NoisePowerForSnrDb(1.0, config_.snr_db);

  frame_samples_ = codec_.frame_bits() *
                   static_cast<std::size_t>(config_.samples_per_bit);
  slab_samples_ = frame_samples_ + config_.max_timing_jitter_samples;
  // Uninitialised: a tag's slices are written before they are read
  // (wave_cached_, ref_length_).
  wave_cache_ =
      AllocateSamples(kWaveCacheRole, population.size() * frame_samples_);
  wave_cached_.assign(population.size(), 0);
  ref_arena_ =
      AllocateSamples(kReferenceRole, population.size() * slab_samples_);
  ref_length_.assign(population.size(), 0);
  resolve_scratch_.resize(1);
}

SignalPhy::~SignalPhy() = default;

std::span<const Sample> SignalPhy::CachedWaveform(std::uint32_t tag) {
  Sample* slot = wave_cache_.get() + frame_samples_ * tag;
  if (!wave_cached_[tag]) {
    segments_.ModulateInto(codec_.FrameBits(population_[tag]), slot);
    if (channels_[tag].cfo_per_sample == 0.0) {
      // Slot-invariant rotation: cache the as-received waveform outright
      // (bit-identical to recomputing it per slot, since the slot phase
      // advance is cfo * slot * samples = 0).
      anc::signal::ApplyChannelInto({slot, frame_samples_}, channels_[tag],
                                    slot);
    }
    wave_cached_[tag] = 1;
  }
  return {slot, frame_samples_};
}

std::span<const Sample> SignalPhy::ReceivedWaveform(
    std::uint32_t tag, std::uint64_t slot_index, std::size_t pool_index) {
  const std::span<const Sample> cached = CachedWaveform(tag);
  if (channels_[tag].cfo_per_sample == 0.0) return cached;
  // A residual carrier offset keeps rotating between slots: the phase a
  // waveform arrives with depends on *when* it is transmitted, so a
  // reference captured in one slot is rotated relative to the same tag's
  // contribution to a later mixed signal. This is what makes CFO hurt
  // subtraction even though the per-slot channel is otherwise static.
  anc::signal::ChannelParams channel = channels_[tag];
  channel.phase += channel.cfo_per_sample *
                   static_cast<double>(slot_index) *
                   static_cast<double>(frame_samples_);
  if (synth_pool_.size() <= pool_index) synth_pool_.resize(pool_index + 1);
  anc::signal::ApplyChannelInto(cached, channel, &synth_pool_[pool_index]);
  return synth_pool_[pool_index];
}

std::uint32_t SignalPhy::AcquireSlab() {
  if (!free_slabs_.empty()) {
    const std::uint32_t slab = free_slabs_.back();
    free_slabs_.pop_back();
    return slab;
  }
  const std::uint32_t chunk_slabs = kFirstChunkSlabs
                                    << slab_chunks_.size();
  if (slab_count_ == chunk_slabs - kFirstChunkSlabs) {  // all chunks full
    slab_chunks_.push_back(AllocateSamples(
        kFirstChunkRole + slab_chunks_.size(), chunk_slabs * slab_samples_));
  }
  return slab_count_++;
}

void SignalPhy::SetReference(std::uint32_t tag, std::span<const Sample> wave) {
  std::copy(wave.begin(), wave.end(), ref_arena_.get() + slab_samples_ * tag);
  ref_length_[tag] = static_cast<std::uint32_t>(wave.size());
}

std::optional<std::uint32_t> SignalPhy::IndexOf(const TagId& id) const {
  // Equal IDs share a probe sequence and were inserted in index order, so
  // the first match is the lowest index holding the ID.
  const std::size_t mask = id_slots_.size() - 1;
  for (std::size_t h = id.Digest() & mask; id_slots_[h] != 0;
       h = (h + 1) & mask) {
    if (population_[id_slots_[h] - 1] == id) return id_slots_[h] - 1;
  }
  return std::nullopt;
}

void SignalPhy::ObserveOne(std::uint64_t slot_index,
                           std::span<const std::uint32_t> participants,
                           SlotObservation* obs) {
  if (participants.empty()) {
    obs->type = SlotType::kEmpty;
    return;
  }

  mix_views_.clear();
  mix_offsets_.clear();
  for (std::size_t j = 0; j < participants.size(); ++j) {
    mix_views_.push_back(
        ReceivedWaveform(participants[j], slot_index, j));
    // The receiver time-aligns to a lone signal; only the *relative*
    // misalignment between collided constituents survives.
    mix_offsets_.push_back(
        (config_.max_timing_jitter_samples == 0 || participants.size() == 1)
            ? 0
            : rng_.UniformBelow(config_.max_timing_jitter_samples + 1));
  }
  anc::signal::MixInto(mix_views_, mix_offsets_, &mix_scratch_);
  anc::signal::AddAwgn(mix_scratch_, noise_power_, rng_);

  obs->type = participants.size() == 1 ? SlotType::kSingleton
                                       : SlotType::kCollision;

  if (participants.size() == 1) {
    if (auto id = codec_.DecodeInto(mix_scratch_, &bits_scratch_)) {
      obs->singleton_id = *id;
      // The latest clean reception replaces any earlier reference.
      SetReference(participants[0], mix_scratch_);
      return;
    }
  }

  if (config_.enable_capture && participants.size() > 1) {
    // Capture attempt on the raw mixture: succeeds only when the CRC of
    // the dominant constituent survives the interference.
    if (auto id = codec_.DecodeInto(mix_scratch_, &bits_scratch_)) {
      obs->singleton_id = *id;
    }
  }

  Record record;
  record.slab = AcquireSlab();
  record.length = static_cast<std::uint32_t>(mix_scratch_.size());
  record.mixture_order = static_cast<std::uint32_t>(participants.size());
  record.open = true;
  std::copy(mix_scratch_.begin(), mix_scratch_.end(), SlabData(record.slab));
  ++open_records_;
  obs->record = records_.Push(record);
}

void SignalPhy::ObserveBatch(const SlotBatch& batch,
                             std::span<SlotObservation> out) {
  // Sequential over slots: synthesis consumes the jitter/noise RNG stream
  // in slot order (the determinism contract in phy.h).
  for (std::size_t i = 0; i < batch.slots(); ++i) {
    out[i] = SlotObservation{};
    ObserveOne(batch.slot_indices[i], batch.ParticipantsOf(i), &out[i]);
  }
}

bool SignalPhy::Attemptable(const ResolveRequest& request) const {
  const Record* record = records_.Find(request.record);
  if (record == nullptr || !record->open) return false;
  if (config_.max_mixture != 0 &&
      record->mixture_order > config_.max_mixture) {
    return false;  // beyond the modeled ANC decoder capability
  }
  for (std::uint32_t tag : request.known_participants) {
    if (ref_length_[tag] == 0) return false;
  }
  return true;
}

std::optional<TagId> SignalPhy::Demodulate(const ResolveRequest& request,
                                           ResolveScratch* scratch) const {
  scratch->refs.clear();
  for (std::uint32_t tag : request.known_participants) {
    scratch->refs.push_back(ReferenceFor(tag));
  }
  resolver_.ResolveLastInto(MixedOf(*records_.Find(request.record)),
                            scratch->refs, codec_.frame_bits(),
                            &scratch->result);
  if (!scratch->result.demodulated) return std::nullopt;
  return codec_.DecodeBits(scratch->result.bits);
}

std::optional<TagId> SignalPhy::Fold(const ResolveRequest& request,
                                     const std::optional<TagId>& id,
                                     const Buffer* residual) {
  if (!id) return std::nullopt;
  // Reject pathological decodes of an already-known constituent (the
  // CRC makes this astronomically unlikely, but it would corrupt
  // bookkeeping).
  for (std::uint32_t tag : request.known_participants) {
    if (population_[tag] == *id) return std::nullopt;
  }
  const auto index = IndexOf(*id);
  if (!index) return std::nullopt;  // noise forged a CRC
  // Keep the extracted signal as the tag's reference for further cascade
  // resolution, unless it already has one.
  if (ref_length_[*index] == 0) {
    if (residual == nullptr) {
      (void)Demodulate(request, &resolve_scratch_[0]);
      residual = &resolve_scratch_[0].result.residual;
    }
    SetReference(*index, *residual);
  }
  return id;
}

void SignalPhy::TryResolveBatch(std::span<const ResolveRequest> requests,
                                std::span<std::optional<TagId>> out) {
  // Which requests are attempted is decided against the reference store
  // as it stands at batch entry. The fold below only ever fills an empty
  // reference, and an attempted request's known participants all had
  // one, so nothing an attempted request reads changes during the batch:
  // folding each request right after demodulating it, or after all of
  // them, gives the same results, and so does any pool size.
  if (attempted_.size() < requests.size()) {
    attempted_.resize(requests.size());
    decoded_.resize(requests.size());
  }
  for (std::size_t i = 0; i < requests.size(); ++i) {
    attempted_[i] = Attemptable(requests[i]) ? 1 : 0;
  }

  if (config_.demod_pool_threads == 0 || requests.size() < 2) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      out[i] = std::nullopt;
      if (!attempted_[i]) continue;
      const auto id = Demodulate(requests[i], &resolve_scratch_[0]);
      out[i] = Fold(requests[i], id, &resolve_scratch_[0].result.residual);
    }
    return;
  }

  // Pool: subtraction and demodulation (the expensive, side-effect-free
  // part) run on the workers; the fold stays in request order on this
  // thread and recomputes the residual of each request it keeps, since
  // a worker's scratch holds only its latest one.
  if (!pool_) {
    pool_ = std::make_unique<DemodPool>(config_.demod_pool_threads);
    resolve_scratch_.resize(1 + config_.demod_pool_threads);
  }
  pool_->Run(requests.size(), [this, &requests](std::size_t i,
                                                unsigned worker) {
    decoded_[i] = attempted_[i]
                      ? Demodulate(requests[i], &resolve_scratch_[worker])
                      : std::nullopt;
  });
  for (std::size_t i = 0; i < requests.size(); ++i) {
    out[i] = Fold(requests[i], decoded_[i], nullptr);
  }
}

void SignalPhy::ReleaseRecord(RecordHandle handle) {
  Record* record = records_.Find(handle);
  if (record == nullptr || !record->open) return;
  record->open = false;
  free_slabs_.push_back(record->slab);
  record->slab = kNoSlab;
  if (--open_records_ == 0) records_.Compact();
}

}  // namespace anc::phy
