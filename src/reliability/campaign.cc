#include "reliability/campaign.hh"

#include <cassert>
#include <cstdio>

namespace tdc
{

Table
CampaignResult::toTable() const
{
    Table t(headers);
    for (const auto &row : rows)
        t.addRow(row);
    return t;
}

std::string
CampaignResult::render() const
{
    std::string out;
    if (!title.empty())
        out += title + "\n\n";
    out += toTable().render();
    return out;
}

void
CampaignResult::print() const
{
    std::fputs(render().c_str(), stdout);
}

CampaignResult
runCampaignGrid(const CampaignGrid &grid)
{
    assert(bool(grid.cell) != bool(grid.outcomeCell));
    const size_t nr = grid.rowLabels.size();
    const size_t nc = grid.colHeaders.size();

    // Cells run one at a time on the calling thread, in row-major
    // order: Monte-Carlo trials are the parallel level, so a cell that
    // parallelFor()s its trials gets the whole pool. Injection grids
    // (outcomeCell) keep the raw numeric outcome — the expensive,
    // memoizable step — apart from its formatted string, so formatting
    // never ends up inside what the result cache stores.
    std::vector<std::vector<std::string>> cells(
        nr, std::vector<std::string>(nc));
    std::vector<std::vector<InjectionOutcome>> outcomes;
    const bool numeric = bool(grid.outcomeCell);
    if (numeric)
        outcomes.assign(nr, std::vector<InjectionOutcome>(nc));
    std::function<std::string(const InjectionOutcome &)> format =
        grid.formatOutcome;
    if (!format)
        format = [](const InjectionOutcome &o) { return o.summary(); };
    for (size_t r = 0; r < nr; ++r) {
        for (size_t c = 0; c < nc; ++c) {
            if (numeric) {
                outcomes[r][c] = grid.outcomeCell(r, c);
                cells[r][c] = format(outcomes[r][c]);
            } else {
                cells[r][c] = grid.cell(r, c);
            }
        }
    }

    CampaignResult result;
    result.title = grid.title;
    result.headers.reserve(1 + nc);
    result.headers.push_back(grid.rowHeader);
    result.headers.insert(result.headers.end(), grid.colHeaders.begin(),
                          grid.colHeaders.end());
    for (size_t r = 0; r < nr; ++r) {
        std::vector<std::string> row;
        row.reserve(1 + nc);
        row.push_back(grid.rowLabels[r]);
        row.insert(row.end(), cells[r].begin(), cells[r].end());
        result.rows.push_back(std::move(row));
    }
    result.cells = std::move(cells);
    result.outcomes = std::move(outcomes);
    if (grid.summary) {
        for (auto &row : grid.summary(result.cells))
            result.rows.push_back(std::move(row));
    }
    return result;
}

} // namespace tdc

