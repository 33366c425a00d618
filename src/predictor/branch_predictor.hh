/**
 * @file
 * The Table 4 branch prediction hierarchy: a bimodal predictor (1 K
 * 2-bit counters), a two-level adaptive predictor (level 1: 1 K entries
 * of 10-bit local history; level 2: 1 K 2-bit counters), a combining
 * chooser (4 K 2-bit counters), a 4096-set 2-way BTB, and a return
 * address stack. Mispredictions cost 7 front-end cycles (the paper's
 * branch mispredict penalty), enforced by the core.
 */

#ifndef MCD_PREDICTOR_BRANCH_PREDICTOR_HH
#define MCD_PREDICTOR_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serial.hh"
#include "common/stats.hh"

namespace mcd
{

/** Shared 2-bit saturating counter helpers. */
namespace satcnt
{

inline std::uint8_t
update(std::uint8_t counter, bool up)
{
    if (up)
        return counter < 3 ? counter + 1 : 3;
    return counter > 0 ? counter - 1 : 0;
}

inline bool taken(std::uint8_t counter) { return counter >= 2; }

} // namespace satcnt

/** Classic bimodal table of 2-bit counters indexed by PC. */
class BimodalPredictor
{
  public:
    explicit BimodalPredictor(int entries = 1024);

    bool predict(std::uint64_t pc) const;
    void update(std::uint64_t pc, bool taken);

    void saveState(std::string &out) const;
    bool loadState(serial::Reader &in);

  private:
    std::vector<std::uint8_t> counters_;
    std::uint64_t mask_;
};

/** Two-level adaptive predictor with per-PC local history. */
class TwoLevelPredictor
{
  public:
    TwoLevelPredictor(int l1_entries = 1024, int history_bits = 10,
                      int l2_entries = 1024);

    bool predict(std::uint64_t pc) const;
    void update(std::uint64_t pc, bool taken);

    void saveState(std::string &out) const;
    bool loadState(serial::Reader &in);

  private:
    std::vector<std::uint16_t> history_;
    std::vector<std::uint8_t> pht_;
    std::uint64_t l1_mask_;
    std::uint64_t l2_mask_;
    std::uint16_t history_mask_;

    std::size_t phtIndex(std::uint64_t pc) const;
};

/** McFarling-style combining predictor with a chooser table. */
class CombiningPredictor
{
  public:
    CombiningPredictor(int chooser_entries = 4096,
                       int bimodal_entries = 1024,
                       int l1_entries = 1024, int history_bits = 10,
                       int l2_entries = 1024);

    bool predict(std::uint64_t pc) const;
    void update(std::uint64_t pc, bool taken);

    void saveState(std::string &out) const;
    bool loadState(serial::Reader &in);

  private:
    BimodalPredictor bimodal_;
    TwoLevelPredictor two_level_;
    std::vector<std::uint8_t> chooser_;
    std::uint64_t chooser_mask_;
};

/** Set-associative branch target buffer. */
class Btb
{
  public:
    Btb(int sets = 4096, int ways = 2);

    /** Predicted target for `pc`, if the BTB knows it. */
    std::optional<std::uint64_t> lookup(std::uint64_t pc) const;

    /** Install/refresh the target for a taken branch. */
    void update(std::uint64_t pc, std::uint64_t target);

    void saveState(std::string &out) const;
    bool loadState(serial::Reader &in);

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        std::uint64_t target = 0;
        bool valid = false;
        std::uint64_t lruStamp = 0;
    };

    int sets_;
    int ways_;
    int set_bits_; //!< log2(sets_); maskFor validates the power of two
    std::vector<Entry> entries_;
    std::uint64_t lru_clock_ = 0;

    std::size_t setBase(std::uint64_t pc) const;
};

/** Return address stack with wrap-around overwrite semantics. */
class Ras
{
  public:
    explicit Ras(int entries = 16);

    void push(std::uint64_t return_pc);
    std::optional<std::uint64_t> pop();
    bool empty() const { return size_ == 0; }

    void saveState(std::string &out) const;
    bool loadState(serial::Reader &in);

  private:
    std::vector<std::uint64_t> stack_;
    int top_ = 0;
    int size_ = 0;
};

/** What fetch learns about a control-flow instruction. */
struct BranchPrediction
{
    bool predictTaken = false;
    std::uint64_t target = 0; //!< valid only when predictTaken
    bool fromRas = false;
    bool btbHit = false;
};

/** Facade combining direction predictor, BTB, and RAS. */
class BranchPredictor
{
  public:
    BranchPredictor();

    /**
     * Predict a control instruction at `pc`.
     * @param is_call     pushes the return address on the RAS
     * @param is_return   predicted via the RAS
     * @param fallthrough pc of the next sequential instruction
     */
    BranchPrediction predict(std::uint64_t pc, bool is_call,
                             bool is_return, std::uint64_t fallthrough);

    /** Train with the resolved outcome. */
    void update(std::uint64_t pc, bool taken, std::uint64_t target,
                bool is_call, bool is_return);

    const Counter &lookups() const { return lookups_; }

    /** Serialize every predictor table (checkpointing; compact:
     *  changed counters and valid BTB entries only). */
    void saveState(std::string &out) const;

    /** Inverse of saveState; false on a table-size mismatch, indices
     *  that do not rise within a table, or out-of-range values. */
    bool loadState(serial::Reader &in);

  private:
    CombiningPredictor direction_;
    Btb btb_;
    Ras ras_;
    Counter lookups_;
};

} // namespace mcd

#endif // MCD_PREDICTOR_BRANCH_PREDICTOR_HH
