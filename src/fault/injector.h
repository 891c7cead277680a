// FaultInjector — the per-run façade the engine talks to: owns the
// fault RNG stream, the three Gilbert-Elliott channels (advert, ack,
// stored-record bit-rot), the record ledger and the crash latch, plus the
// lifecycle counters everything reports into.
//
// Construction forks one RNG stream off the engine's generator, so an
// injector must only be created when FaultConfig::Any() is true — the
// zero-cost-off contract (see fault_config.h) lives or dies on that.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.h"
#include "fault/fault_config.h"
#include "fault/gilbert_elliott.h"
#include "fault/record_ledger.h"

namespace anc::fault {

class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, anc::Pcg32 rng)
      : config_(config),
        rng_(rng),
        ledger_(config_.store, &counters_, &rng_),
        advert_(config_.advert_corruption),
        ack_(config_.ack_loss),
        bitrot_(config_.record_bitrot) {}

  const FaultConfig& config() const { return config_; }
  FaultCounters& counters() { return counters_; }
  const FaultCounters& counters() const { return counters_; }
  RecordLedger& ledger() { return ledger_; }
  const RecordLedger& ledger() const { return ledger_; }

  // Frame-advert downlink: one channel use per advertisement. A corrupted
  // advert never reaches the tags — they stay on the last probability
  // they heard (p = 1 probes are short, repeated commands and are treated
  // as robust).
  bool AdvertChannelEnabled() const { return advert_.enabled(); }
  bool AdvertCorrupted() {
    const bool lost = advert_.Sample(rng_);
    if (lost) ++counters_.adverts_corrupted;
    return lost;
  }

  // Acknowledgement downlink: one channel use per (re-)ack. When enabled
  // the engine consults this instead of its (always-successful) default
  // ack path; a degenerate GE channel reproduces flat Bernoulli loss.
  bool AckChannelEnabled() const { return ack_.enabled(); }
  bool AckLost() {
    const bool lost = ack_.Sample(rng_);
    if (lost) ++counters_.acks_lost;
    return lost;
  }

  // Stored-record bit-rot: one channel use per slot; a strike corrupts
  // the oldest still-clean open record (returned so the engine can trace
  // it; kInvalidRecord when no strike or nothing to corrupt).
  bool BitrotChannelEnabled() const { return bitrot_.enabled(); }
  phy::RecordHandle SampleBitrot() {
    if (!bitrot_.Sample(rng_)) return phy::kInvalidRecord;
    return ledger_.CorruptOldest();
  }

  // Crash latch: fires exactly once, when the protocol clock reaches the
  // scheduled slot.
  bool ShouldCrash(std::uint64_t slot) {
    if (crashed_ || !config_.crash.Enabled() ||
        slot < config_.crash.crash_at_slot) {
      return false;
    }
    crashed_ = true;
    ++counters_.reader_crashes;
    return true;
  }

  // Checkpoint hooks (common/serialize.h wire format). The config is
  // construction-time; the RNG stream, counters, ledger, channel Markov
  // states and the crash latch travel.
  void SaveState(std::string* out) const {
    PutPcg32(*out, rng_);
    PutFaultCounters(*out, counters_);
    ledger_.SaveState(out);
    ser::PutBool(*out, advert_.in_bad_state());
    ser::PutBool(*out, ack_.in_bad_state());
    ser::PutBool(*out, bitrot_.in_bad_state());
    ser::PutBool(*out, crashed_);
  }
  bool RestoreState(ser::Reader& r, ser::BlobFormat format) {
    if (!ReadPcg32(r, rng_)) return false;
    if (!ReadFaultCounters(r, counters_)) return false;
    if (!ledger_.RestoreState(r, format)) return false;
    advert_.set_bad_state(r.Bool());
    ack_.set_bad_state(r.Bool());
    bitrot_.set_bad_state(r.Bool());
    crashed_ = r.Bool();
    return r.ok;
  }

 private:
  FaultConfig config_;
  anc::Pcg32 rng_;
  FaultCounters counters_{};
  RecordLedger ledger_;
  GilbertElliottChannel advert_;
  GilbertElliottChannel ack_;
  GilbertElliottChannel bitrot_;
  bool crashed_ = false;
};

// Canned fault profiles, keyed by label. A labelled FaultConfig suffixes
// the protocol name ("FCAT-2@chaos"), which is how trace replay
// reconstructs the exact fault schedule from a run header: the profile is
// the schedule's entire parameterization, and the RNG stream derives from
// the run's seed. Returns nullopt for unknown names.
std::optional<FaultConfig> FaultProfile(const std::string& name);

// Comma-separated list of known profile names (CLI help text).
std::string FaultProfileList();

}  // namespace anc::fault
