#include "predictor/branch_predictor.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace mcd
{

namespace
{

std::uint64_t
maskFor(int entries)
{
    if (entries <= 0 || (entries & (entries - 1)) != 0)
        mcd_fatal("predictor table size %d must be a power of two",
                  entries);
    return static_cast<std::uint64_t>(entries - 1);
}

/** Drop the low two PC bits (instruction alignment) before indexing. */
inline std::uint64_t
pcIndex(std::uint64_t pc)
{
    return pc >> 2;
}

/** A 2-bit counter's reset state: weakly taken. */
constexpr std::uint8_t WEAKLY_TAKEN = 2;

/** Largest 2-bit counter value. */
constexpr std::uint64_t COUNTER_MAX = 3;

/**
 * Predictor arrays serialize sparsely (serial::appendSparse): only the
 * entries that differ from the table's reset value `fill`. Warm-up
 * touches a small share of each table, so most entries cost nothing.
 */
template <typename T>
void
saveTable(std::string &out, const std::vector<T> &table, T fill)
{
    serial::appendSparse(
        out, table.size(), [&](std::size_t i) { return table[i] != fill; },
        [&](std::size_t i) {
            serial::appendVar(out, static_cast<std::uint64_t>(table[i]));
        });
}

/** Inverse of saveTable; also rejects values above `max`. */
template <typename T>
bool
loadTable(serial::Reader &in, std::vector<T> &table, T fill,
          std::uint64_t max)
{
    std::fill(table.begin(), table.end(), fill);
    return serial::readSparse(in, table.size(), [&](std::size_t i) {
        std::uint64_t value = in.readVar();
        table[i] = static_cast<T>(value);
        return value <= max;
    });
}

} // namespace

BimodalPredictor::BimodalPredictor(int entries)
    : counters_(static_cast<std::size_t>(entries), WEAKLY_TAKEN),
      mask_(maskFor(entries))
{
}

bool
BimodalPredictor::predict(std::uint64_t pc) const
{
    return satcnt::taken(counters_[pcIndex(pc) & mask_]);
}

void
BimodalPredictor::update(std::uint64_t pc, bool taken)
{
    auto &counter = counters_[pcIndex(pc) & mask_];
    counter = satcnt::update(counter, taken);
}

TwoLevelPredictor::TwoLevelPredictor(int l1_entries, int history_bits,
                                     int l2_entries)
    : history_(static_cast<std::size_t>(l1_entries), 0),
      pht_(static_cast<std::size_t>(l2_entries), WEAKLY_TAKEN),
      l1_mask_(maskFor(l1_entries)),
      l2_mask_(maskFor(l2_entries)),
      history_mask_(static_cast<std::uint16_t>((1u << history_bits) - 1))
{
}

std::size_t
TwoLevelPredictor::phtIndex(std::uint64_t pc) const
{
    std::uint16_t hist = history_[pcIndex(pc) & l1_mask_];
    // XOR-fold history with the PC so distinct branches sharing history
    // patterns interfere less (gshare-flavored second level).
    return static_cast<std::size_t>(
        (hist ^ pcIndex(pc)) & l2_mask_);
}

bool
TwoLevelPredictor::predict(std::uint64_t pc) const
{
    return satcnt::taken(pht_[phtIndex(pc)]);
}

void
TwoLevelPredictor::update(std::uint64_t pc, bool taken)
{
    auto &counter = pht_[phtIndex(pc)];
    counter = satcnt::update(counter, taken);
    auto &hist = history_[pcIndex(pc) & l1_mask_];
    hist = static_cast<std::uint16_t>(
        ((hist << 1) | (taken ? 1u : 0u)) & history_mask_);
}

CombiningPredictor::CombiningPredictor(int chooser_entries,
                                       int bimodal_entries,
                                       int l1_entries, int history_bits,
                                       int l2_entries)
    : bimodal_(bimodal_entries),
      two_level_(l1_entries, history_bits, l2_entries),
      chooser_(static_cast<std::size_t>(chooser_entries), WEAKLY_TAKEN),
      chooser_mask_(maskFor(chooser_entries))
{
}

bool
CombiningPredictor::predict(std::uint64_t pc) const
{
    bool use_two_level =
        satcnt::taken(chooser_[pcIndex(pc) & chooser_mask_]);
    return use_two_level ? two_level_.predict(pc) : bimodal_.predict(pc);
}

void
CombiningPredictor::update(std::uint64_t pc, bool taken)
{
    bool bimodal_correct = bimodal_.predict(pc) == taken;
    bool two_level_correct = two_level_.predict(pc) == taken;
    if (bimodal_correct != two_level_correct) {
        auto &counter = chooser_[pcIndex(pc) & chooser_mask_];
        counter = satcnt::update(counter, two_level_correct);
    }
    bimodal_.update(pc, taken);
    two_level_.update(pc, taken);
}

Btb::Btb(int sets, int ways)
    : sets_(sets), ways_(ways),
      set_bits_(std::countr_zero(maskFor(sets) + 1)),
      entries_(static_cast<std::size_t>(sets) *
               static_cast<std::size_t>(ways))
{
}

std::size_t
Btb::setBase(std::uint64_t pc) const
{
    std::uint64_t set = pcIndex(pc) &
        static_cast<std::uint64_t>(sets_ - 1);
    return static_cast<std::size_t>(set) *
           static_cast<std::size_t>(ways_);
}

std::optional<std::uint64_t>
Btb::lookup(std::uint64_t pc) const
{
    std::size_t base = setBase(pc);
    for (int w = 0; w < ways_; ++w) {
        const Entry &entry = entries_[base + static_cast<std::size_t>(w)];
        if (entry.valid && entry.tag == pcIndex(pc))
            return entry.target;
    }
    return std::nullopt;
}

void
Btb::update(std::uint64_t pc, std::uint64_t target)
{
    ++lru_clock_;
    std::size_t base = setBase(pc);
    Entry *victim = &entries_[base];
    for (int w = 0; w < ways_; ++w) {
        Entry &entry = entries_[base + static_cast<std::size_t>(w)];
        if (entry.valid && entry.tag == pcIndex(pc)) {
            entry.target = target;
            entry.lruStamp = lru_clock_;
            return;
        }
        if (!entry.valid) {
            victim = &entry;
        } else if (!victim->valid ? false
                                  : entry.lruStamp < victim->lruStamp) {
            victim = &entry;
        }
    }
    victim->valid = true;
    victim->tag = pcIndex(pc);
    victim->target = target;
    victim->lruStamp = lru_clock_;
}

Ras::Ras(int entries)
    : stack_(static_cast<std::size_t>(entries), 0)
{
    if (entries <= 0)
        mcd_fatal("RAS needs at least one entry");
}

void
Ras::push(std::uint64_t return_pc)
{
    stack_[static_cast<std::size_t>(top_)] = return_pc;
    top_ = (top_ + 1) % static_cast<int>(stack_.size());
    if (size_ < static_cast<int>(stack_.size()))
        ++size_;
}

std::optional<std::uint64_t>
Ras::pop()
{
    if (size_ == 0)
        return std::nullopt;
    top_ = (top_ + static_cast<int>(stack_.size()) - 1) %
           static_cast<int>(stack_.size());
    --size_;
    return stack_[static_cast<std::size_t>(top_)];
}

void
BimodalPredictor::saveState(std::string &out) const
{
    saveTable(out, counters_, WEAKLY_TAKEN);
}

bool
BimodalPredictor::loadState(serial::Reader &in)
{
    return loadTable(in, counters_, WEAKLY_TAKEN, COUNTER_MAX);
}

void
TwoLevelPredictor::saveState(std::string &out) const
{
    saveTable(out, history_, std::uint16_t{0});
    saveTable(out, pht_, WEAKLY_TAKEN);
}

bool
TwoLevelPredictor::loadState(serial::Reader &in)
{
    return loadTable(in, history_, std::uint16_t{0}, history_mask_) &&
           loadTable(in, pht_, WEAKLY_TAKEN, COUNTER_MAX);
}

void
CombiningPredictor::saveState(std::string &out) const
{
    bimodal_.saveState(out);
    two_level_.saveState(out);
    saveTable(out, chooser_, WEAKLY_TAKEN);
}

bool
CombiningPredictor::loadState(serial::Reader &in)
{
    return bimodal_.loadState(in) && two_level_.loadState(in) &&
           loadTable(in, chooser_, WEAKLY_TAKEN, COUNTER_MAX);
}

// Valid entries only, as in Cache::saveState: the tag above the set
// bits, the target and the LRU stamp. Entries are never invalidated
// and update() never reads an invalid entry's fields, so invalid
// entries load as default ones.
void
Btb::saveState(std::string &out) const
{
    serial::appendSparse(
        out, entries_.size(),
        [&](std::size_t i) { return entries_[i].valid; },
        [&](std::size_t i) {
            const Entry &entry = entries_[i];
            serial::appendVar(out, entry.tag >> set_bits_);
            serial::appendVar(out, entry.target);
            serial::appendVar(out, entry.lruStamp);
        });
    serial::appendVar(out, lru_clock_);
}

bool
Btb::loadState(serial::Reader &in)
{
    std::fill(entries_.begin(), entries_.end(), Entry{});
    auto ways = static_cast<std::size_t>(ways_);
    bool entries_ok =
        serial::readSparse(in, entries_.size(), [&](std::size_t i) {
            Entry &entry = entries_[i];
            entry.valid = true;
            entry.tag = in.readVar() << set_bits_ | i / ways;
            entry.target = in.readVar();
            entry.lruStamp = in.readVar();
            return true;
        });
    lru_clock_ = in.readVar();
    return entries_ok && in.ok();
}

void
Ras::saveState(std::string &out) const
{
    saveTable(out, stack_, std::uint64_t{0});
    serial::appendVar(out, static_cast<std::uint64_t>(top_));
    serial::appendVar(out, static_cast<std::uint64_t>(size_));
}

bool
Ras::loadState(serial::Reader &in)
{
    if (!loadTable(in, stack_, std::uint64_t{0},
                   ~std::uint64_t{0}))
        return false;
    std::uint64_t top = in.readVar();
    std::uint64_t size = in.readVar();
    if (!in.ok() || top >= stack_.size() || size > stack_.size())
        return false;
    top_ = static_cast<int>(top);
    size_ = static_cast<int>(size);
    return true;
}

void
BranchPredictor::saveState(std::string &out) const
{
    direction_.saveState(out);
    btb_.saveState(out);
    ras_.saveState(out);
    serial::appendU64(out, lookups_.value());
}

bool
BranchPredictor::loadState(serial::Reader &in)
{
    if (!direction_.loadState(in) || !btb_.loadState(in) ||
        !ras_.loadState(in))
        return false;
    lookups_.set(in.readU64());
    return in.ok();
}

BranchPredictor::BranchPredictor() = default;

BranchPrediction
BranchPredictor::predict(std::uint64_t pc, bool is_call, bool is_return,
                         std::uint64_t fallthrough)
{
    lookups_.inc();
    BranchPrediction prediction;

    if (is_return) {
        if (auto target = ras_.pop()) {
            prediction.predictTaken = true;
            prediction.target = *target;
            prediction.fromRas = true;
            return prediction;
        }
        // Fall through to BTB below if the RAS is empty.
    }

    auto btb_target = btb_.lookup(pc);
    prediction.btbHit = btb_target.has_value();
    bool taken = direction_.predict(pc);
    // Unconditional calls are always taken once the target is known.
    if (is_call)
        taken = true;
    if (taken && btb_target) {
        prediction.predictTaken = true;
        prediction.target = *btb_target;
    }
    // Without a BTB target the front end cannot redirect, so the
    // effective prediction is not-taken even if the direction said taken.

    if (is_call)
        ras_.push(fallthrough);
    return prediction;
}

void
BranchPredictor::update(std::uint64_t pc, bool taken, std::uint64_t target,
                        bool is_call, bool is_return)
{
    if (!is_return)
        direction_.update(pc, taken);
    if (taken && !is_return)
        btb_.update(pc, target);
    (void)is_call;
}

} // namespace mcd
