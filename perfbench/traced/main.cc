/**
 * @file
 * tdc_traced: the tdc_run main linked with the span-recording wrappers
 * of wraps.cc. stdout, stderr and the exit code are those of tdc_run
 * (same tdcRun call, same printing). When PERFBENCH_SPANS names a file,
 * the span log is written there after the run.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver/tdc_run.hh"
#include "span_log.hh"

int
main(int argc, char **argv)
{
    perfbench::markMainThread();
    std::string out, err;
    const int code = tdc::tdcRun(
        std::vector<std::string>(argv + 1, argv + argc), out, err);
    if (!out.empty())
        std::fputs(out.c_str(), stdout);
    if (!err.empty())
        std::fputs(err.c_str(), stderr);

    if (const char *path = std::getenv("PERFBENCH_SPANS")) {
        std::FILE *file = std::fopen(path, "w");
        if (file == nullptr) {
            std::perror(path);
            return code != 0 ? code : 1;
        }
        perfbench::writeSpanLog(file);
        if (std::fclose(file) != 0) {
            std::perror(path);
            return code != 0 ? code : 1;
        }
    }
    return code;
}
