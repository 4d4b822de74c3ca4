/**
 * @file
 * Unified figure-campaign driver. Every figure benchmark in the study
 * is a grid — scheme x interleave degree x fault model x workload —
 * whose cells are either analytic model evaluations or Monte-Carlo
 * injection campaigns. This driver expresses such a figure
 * declaratively (axes + a pure cell evaluator) and executes it cell by
 * cell on the calling thread. Monte-Carlo trials are the only parallel
 * level: each expensive cell shards its own trials over the parallelFor
 * worker pool with counter-based seeding, so every campaign table is
 * bit-identical at any TDC_THREADS setting.
 */

#ifndef TDC_RELIABILITY_CAMPAIGN_HH
#define TDC_RELIABILITY_CAMPAIGN_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/table.hh"
#include "reliability/result_cache.hh"

namespace tdc
{

/**
 * A declarative figure grid: row labels x column headers, with a pure
 * cell evaluator. The evaluator must depend only on (row, col) — any
 * randomness must come from a counter-based stream derived from the
 * cell index — so the executed table is independent of thread count
 * and execution order.
 */
struct CampaignGrid
{
    /** Panel heading printed above the table ("--- Figure 2(b) ---").
     *  Empty = table only. */
    std::string title;

    /** Header of the label column ("Error footprint", "Workload"...). */
    std::string rowHeader;

    std::vector<std::string> rowLabels;
    std::vector<std::string> colHeaders;

    /** Formatted value of cell (row, col). Analytic grids set this;
     *  injection grids should set outcomeCell instead so the numeric
     *  result is computed (and memoized) separately from formatting. */
    std::function<std::string(size_t row, size_t col)> cell;

    /**
     * Numeric evaluator for injection grids: returns the raw
     * InjectionOutcome of cell (row, col) — typically via
     * cachedInjectAndRecover, so repeated grids replay from the result
     * cache. When set, `cell` must be empty; the executor keeps each
     * outcome in CampaignResult::outcomes and renders its table cell
     * through formatOutcome.
     */
    std::function<InjectionOutcome(size_t row, size_t col)> outcomeCell;

    /** Renders an outcome into its table cell (default: summary()).
     *  Pure formatting only — never any computation worth caching. */
    std::function<std::string(const InjectionOutcome &outcome)>
        formatOutcome;

    /**
     * Optional trailing rows computed from the full cell matrix after
     * every cell ran (e.g. a per-column "Average" row). Each returned
     * row is label + one cell per column.
     */
    std::function<std::vector<std::vector<std::string>>(
        const std::vector<std::vector<std::string>> &cells)>
        summary;
};

/** An executed campaign: the raw cells plus the rendered table. */
struct CampaignResult
{
    std::string title;
    std::vector<std::string> headers; ///< rowHeader + colHeaders
    std::vector<std::vector<std::string>> rows; ///< label + cells (+summary)
    std::vector<std::vector<std::string>> cells; ///< raw grid cells only

    /** Raw numeric outcomes (outcomeCell grids only, else empty) —
     *  the memoizable result, decoupled from the rendered strings. */
    std::vector<std::vector<InjectionOutcome>> outcomes;

    /** Assemble the tdc::Table (header + rows). */
    Table toTable() const;

    /** Title (when present), blank line, then the table. */
    std::string render() const;

    void print() const;
};

/**
 * Execute the grid: every cell on the calling thread in row-major
 * order, then the summary rows. A cell that parallelFor()s its trials
 * gets the whole worker pool.
 */
CampaignResult runCampaignGrid(const CampaignGrid &grid);

} // namespace tdc

#endif // TDC_RELIABILITY_CAMPAIGN_HH
