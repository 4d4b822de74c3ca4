#include "reliability/campaign.hh"

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
    // Cells run one at a time on the calling thread, in row-major
    // order: Monte-Carlo trials are the parallel level, so a cell that
    // parallelFor()s its trials gets the whole pool.
    CampaignResult result;
    result.title = grid.title;
    result.headers.reserve(1 + grid.colHeaders.size());
    result.headers.push_back(grid.rowHeader);
    result.headers.insert(result.headers.end(), grid.colHeaders.begin(),
                          grid.colHeaders.end());
    for (size_t r = 0; r < grid.rowLabels.size(); ++r) {
        std::vector<std::string> row;
        row.reserve(1 + grid.colHeaders.size());
        row.push_back(grid.rowLabels[r]);
        for (size_t c = 0; c < grid.colHeaders.size(); ++c)
            row.push_back(grid.cell(r, c));
        result.rows.push_back(std::move(row));
    }
    return result;
}

} // namespace tdc
