#include "array/memory_array.hh"

#include <algorithm>
#include <cassert>

namespace tdc
{

MemoryArray::MemoryArray(size_t rows, size_t cols)
    : cells(rows, cols)
{
    assert(rows > 0 && cols > 0);
}

BitVector
MemoryArray::readRow(size_t r) const
{
    BitVector row;
    readRowInto(r, row);
    return row;
}

void
MemoryArray::readRowInto(size_t r, BitVector &out) const
{
    assert(r < rows());
    ++reads;
    copyRowInto(r, out);
}

void
MemoryArray::copyRowInto(size_t r, BitVector &out) const
{
    assert(r < rows());
    out = cells.row(r);
    auto it = stuckByRow.find(r);
    if (it != stuckByRow.end()) {
        for (const auto &[c, v] : it->second)
            out.set(c, v);
    }
}

ConstBitSpan
MemoryArray::viewRow(size_t r) const
{
    assert(r < rows());
    assert(!rowHasStuck(r) && "stuck rows must be read through readRow");
    ++reads;
    return ConstBitSpan(cells.row(r));
}

void
MemoryArray::writeRow(size_t r, const BitVector &value)
{
    assert(r < rows());
    assert(value.size() == cols());
    ++writes;
    ++mutations;
    cells.setRow(r, value);
}

void
MemoryArray::xorRow(size_t r, const BitVector &delta)
{
    assert(r < rows());
    assert(delta.size() == cols());
    ++writes;
    ++mutations;
    cells.row(r) ^= delta;
}

bool
MemoryArray::readBit(size_t r, size_t c) const
{
    assert(r < rows() && c < cols());
    auto it = stuckByRow.find(r);
    if (it != stuckByRow.end()) {
        for (const auto &[col, v] : it->second)
            if (col == c)
                return v;
    }
    return cells.get(r, c);
}

void
MemoryArray::writeBit(size_t r, size_t c, bool value)
{
    assert(r < rows() && c < cols());
    ++mutations;
    cells.set(r, c, value);
}

void
MemoryArray::flipBit(size_t r, size_t c)
{
    assert(r < rows() && c < cols());
    ++mutations;
    cells.flip(r, c);
}

void
MemoryArray::addStuckAt(size_t r, size_t c, bool value)
{
    assert(r < rows() && c < cols());
    ++mutations;
    auto &row_faults = stuckByRow[r];
    for (auto &[col, v] : row_faults) {
        if (col == c) {
            v = value;
            return;
        }
    }
    row_faults.emplace_back(c, value);
    ++stuckTotal;
}

void
MemoryArray::clearFault(size_t r, size_t c)
{
    ++mutations;
    auto it = stuckByRow.find(r);
    if (it == stuckByRow.end())
        return;
    auto &row_faults = it->second;
    auto pos = std::find_if(row_faults.begin(), row_faults.end(),
                            [c](const auto &f) { return f.first == c; });
    if (pos == row_faults.end())
        return;
    row_faults.erase(pos);
    --stuckTotal;
    if (row_faults.empty())
        stuckByRow.erase(it);
}

void
MemoryArray::clearAllFaults()
{
    ++mutations;
    stuckByRow.clear();
    stuckTotal = 0;
}

std::vector<std::pair<size_t, size_t>>
MemoryArray::stuckRows() const
{
    std::vector<std::pair<size_t, size_t>> out;
    out.reserve(stuckByRow.size());
    for (const auto &[row, faults] : stuckByRow)
        out.emplace_back(row, faults.size());
    std::sort(out.begin(), out.end());
    return out;
}

void
MemoryArray::clearRowFaults(size_t r)
{
    ++mutations;
    auto it = stuckByRow.find(r);
    if (it == stuckByRow.end())
        return;
    // Materialize each stuck value into the stored state so the
    // visible row is unchanged by the overlay removal.
    for (const auto &[col, value] : it->second)
        cells.set(r, col, value);
    stuckTotal -= it->second.size();
    stuckByRow.erase(it);
}

bool
MemoryArray::isStuck(size_t r, size_t c) const
{
    auto it = stuckByRow.find(r);
    if (it == stuckByRow.end())
        return false;
    for (const auto &[col, v] : it->second)
        if (col == c)
            return true;
    return false;
}

void
MemoryArray::resetCounters()
{
    reads = 0;
    writes = 0;
}

} // namespace tdc
