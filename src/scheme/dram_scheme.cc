#include "scheme/dram_scheme.hh"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/chip_iecc.hh"
#include "ecc/reed_solomon.hh"
#include "scheme/spec_parse.hh"

namespace tdc
{

namespace
{

/** Data chips per rank: 12 for x4 (RS(15,12)), 8 for x8 (RS(11,8)). */
size_t
dataChipsForWidth(size_t symbol_bits)
{
    return symbol_bits == 4 ? 12 : 8;
}

/**
 * Session over one rank: golden RS codewords (plus per-chip IECC check
 * words, side-stored) and a scrub pass that runs the IECC pre-pass
 * (in-chip corrections + chip-erasure flags), the rank-level SSC-DSD
 * decode (erasure mode when exactly one chip is flagged dead or
 * erased), write-back of corrected words, and verification of the
 * *delivered* word against golden. Repair units are chips (default)
 * or columns ("/cols"); a chip whose rank-level corrections dominated
 * two consecutive scrub passes is declared dead and becomes a standing
 * erasure, so a later fault on a second chip still decodes (the
 * chipkill ride-through). Repairing a chip clears its dead mark.
 */
class DramSession final : public DeviceSession
{
  public:
    DramSession(const DramSchemeConfig &config, Rng &fill)
        : cfg(config), dram(config.geometry),
          rs(config.geometry.symbolBits,
             config.geometry.chips - SymbolRsCode::kCheckSymbols),
          iecc(config.iecc
                   ? std::make_unique<ChipSecded>(config.geometry.symbolBits)
                   : nullptr),
          streak(config.geometry.chips, 0)
    {
        const DramGeometry &g = cfg.geometry;
        golden.assign(g.rows(), std::vector<uint32_t>(g.chips, 0));
        if (iecc)
            checks.assign(g.rows(), std::vector<uint32_t>(g.chips, 0));
        const uint64_t symbols = uint64_t(1) << g.symbolBits;
        for (size_t r = 0; r < g.rows(); ++r) {
            std::vector<uint32_t> &word = golden[r];
            for (size_t i = SymbolRsCode::kCheckSymbols; i < g.chips; ++i)
                word[i] = uint32_t(fill.nextBelow(symbols));
            rs.encode(word);
            dram.writeCodeword(r, word);
            if (iecc)
                for (size_t i = 0; i < g.chips; ++i)
                    checks[r][i] = iecc->encode(word[i]);
        }
    }

    void inject(const FaultModel &fault, Rng &rng) override
    {
        FaultInjector injector(rng);
        injector.inject(dram.cells(), fault);
    }

    Verdict scrubAndVerify() override
    {
        const DramGeometry &g = cfg.geometry;
        bool due = false, silent = false;
        // hits[chip] = rows whose rank-level correction touched it.
        std::vector<size_t> hits(g.chips, 0);
        std::vector<uint32_t> word;
        for (size_t r = 0; r < g.rows(); ++r) {
            word = dram.readCodeword(r);
            std::vector<size_t> erasures;
            bool changed = false;
            if (iecc) {
                for (size_t i = 0; i < g.chips; ++i) {
                    const uint32_t before = word[i];
                    const DecodeStatus st =
                        iecc->decode(word[i], checks[r][i]);
                    changed |= word[i] != before;
                    if (st == DecodeStatus::kDetectedUncorrectable)
                        erasures.push_back(i);
                }
            }
            for (size_t chip : dead)
                if (std::find(erasures.begin(), erasures.end(), chip) ==
                    erasures.end())
                    erasures.push_back(chip);

            SymbolDecodeResult res;
            if (erasures.empty())
                res = rs.decode(word);
            else if (erasures.size() == 1)
                res = rs.decodeErasure(word, erasures.front());
            else
                res.status = DecodeStatus::kDetectedUncorrectable;

            if (res.uncorrectable()) {
                due = true;
                continue;
            }
            if (res.corrected()) {
                changed = true;
                for (const auto &[pos, value] : res.corrections) {
                    (void)value;
                    ++hits[pos];
                }
            }
            if (changed)
                dram.writeCodeword(r, word);
            if (word != golden[r])
                silent = true;
        }
        // Dead-chip detector: a chip corrected in at least half the
        // rows "dominated" the pass; two consecutive dominated passes
        // (a transient kill heals after one) declare it dead.
        for (size_t i = 0; i < hits.size(); ++i) {
            if (2 * hits[i] >= g.rows()) {
                if (++streak[i] >= 2)
                    dead.insert(i);
            } else {
                streak[i] = 0;
            }
        }
        if (silent)
            return Verdict::kSdc;
        return due ? Verdict::kDue : Verdict::kCorrected;
    }

    std::vector<std::pair<size_t, size_t>> stuckRows() override
    {
        return cfg.columnRepair ? dram.stuckColumns() : dram.stuckChips();
    }

    void repairRow(size_t unit) override
    {
        if (cfg.columnRepair) {
            dram.repairColumn(unit);
            const size_t chip = dram.chipOfCol(unit);
            const size_t bit = unit % cfg.geometry.symbolBits;
            for (size_t r = 0; r < cfg.geometry.rows(); ++r)
                dram.cells().writeBit(r, unit,
                                      (golden[r][chip] >> bit) & 1u);
        } else {
            dram.repairChip(unit);
            for (size_t r = 0; r < cfg.geometry.rows(); ++r)
                dram.writeSymbol(r, unit, golden[r][unit]);
            dead.erase(unit);
            streak[unit] = 0;
        }
    }

  private:
    DramSchemeConfig cfg;
    DramArray dram;
    SymbolRsCode rs;
    std::unique_ptr<ChipSecded> iecc;
    /** golden[row] = the encoded codeword the rank was filled with. */
    std::vector<std::vector<uint32_t>> golden;
    /** checks[row][chip] = IECC check word (IECC variant only). */
    std::vector<std::vector<uint32_t>> checks;
    std::set<size_t> dead;
    std::vector<size_t> streak;
};

class DramScheme final : public ProtectionScheme
{
  public:
    explicit DramScheme(const DramSchemeConfig &config) : cfg(config) {}

    std::string name() const override
    {
        const size_t n = cfg.geometry.chips;
        return std::string(cfg.iecc ? "IECC+" : "") + "Chipkill(x" +
               std::to_string(cfg.geometry.symbolBits) + ",RS" +
               std::to_string(n) + "/" +
               std::to_string(n - SymbolRsCode::kCheckSymbols) + ")";
    }

    std::string spec() const override
    {
        std::string s = std::string("dram:") +
                        (cfg.iecc ? "iecc+chipkill" : "chipkill") + "/x" +
                        std::to_string(cfg.geometry.symbolBits);
        if (cfg.geometry.rowsPerBank != 32)
            s += "/r" + std::to_string(cfg.geometry.rowsPerBank);
        if (cfg.geometry.banks != 2)
            s += "/b" + std::to_string(cfg.geometry.banks);
        if (cfg.columnRepair)
            s += "/cols";
        return s;
    }

    double storageOverhead() const override
    {
        const size_t b = cfg.geometry.symbolBits;
        const size_t data =
            (cfg.geometry.chips - SymbolRsCode::kCheckSymbols) * b;
        double check = double(SymbolRsCode::kCheckSymbols * b);
        if (cfg.iecc)
            check += double(cfg.geometry.chips *
                            ChipSecded(unsigned(b)).checkBits());
        return check / double(data);
    }

    std::unique_ptr<DeviceSession> openSession(Rng &fill) const override
    {
        return std::make_unique<DramSession>(cfg, fill);
    }

  private:
    DramSchemeConfig cfg;
};

} // namespace

SchemePtr
makeDramScheme(const DramSchemeConfig &config)
{
    return std::make_shared<DramScheme>(config);
}

SchemeFamily
dramSchemeFamily()
{
    SchemeFamily family;
    family.key = "dram";
    family.grammar =
        "dram:{chipkill|iecc+chipkill}/x{4|8}[/r<rows>][/b<banks>][/cols]";
    family.description =
        "DRAM rank with RS/SSC-DSD chipkill (x4: 12+3 chips, x8: 8+3 "
        "chips), optionally per-chip IECC SEC-DED feeding chip erasures; "
        "/cols repairs spare columns instead of spare chips";
    family.examples = {"dram:chipkill/x4", "dram:iecc+chipkill/x8",
                       "dram:chipkill/x8/r16/b4/cols"};
    family.parse = [](const std::string &body, const std::string &spec) {
        std::vector<std::string> tokens;
        size_t start = 0;
        while (start <= body.size()) {
            const size_t slash = body.find('/', start);
            tokens.push_back(body.substr(
                start, slash == std::string::npos ? std::string::npos
                                                  : slash - start));
            if (slash == std::string::npos)
                break;
            start = slash + 1;
        }

        DramSchemeConfig cfg;
        if (tokens.front() == "chipkill")
            cfg.iecc = false;
        else if (tokens.front() == "iecc+chipkill")
            cfg.iecc = true;
        else
            specError(spec, "unknown dram variant \"" + tokens.front() +
                                "\" (chipkill | iecc+chipkill)");

        bool have_width = false;
        for (size_t i = 1; i < tokens.size(); ++i) {
            const std::string &tok = tokens[i];
            if (tok == "x4" || tok == "x8") {
                cfg.geometry.symbolBits = tok == "x4" ? 4 : 8;
                have_width = true;
            } else if (tok == "cols") {
                cfg.columnRepair = true;
            } else if (tok.rfind("r", 0) == 0) {
                cfg.geometry.rowsPerBank =
                    parseNumber(spec, tok, tok.substr(1), 1, 4096);
            } else if (tok.rfind("b", 0) == 0) {
                cfg.geometry.banks =
                    parseNumber(spec, tok, tok.substr(1), 1, 64);
            } else {
                specError(spec, "unknown token \"" + tok + "\"");
            }
        }
        if (!have_width)
            specError(spec, "missing device width (\"/x4\" or \"/x8\")");
        cfg.geometry.chips = dataChipsForWidth(cfg.geometry.symbolBits) +
                             SymbolRsCode::kCheckSymbols;
        return makeDramScheme(cfg);
    };
    return family;
}

} // namespace tdc
