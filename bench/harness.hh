/**
 * @file
 * The paper's configurations, applications and published numbers,
 * one copy: the paper generator (bench/paper) prints them beside the
 * model's, and the band tests, sweep_perf and cedarbench read them.
 */

#ifndef CEDAR_BENCH_HARNESS_HH
#define CEDAR_BENCH_HARNESS_HH

#include <map>
#include <string>
#include <vector>

#include "hw/config.hh"

namespace cedar::bench
{

/** The five measured processor counts of the paper, in order
 *  (single-sourced from hw::CedarConfig). */
inline const std::vector<unsigned> &configs =
    hw::CedarConfig::paperProcCounts();

/** Paper Table 1: speedups (index 0 unused). */
inline const std::map<std::string, std::vector<double>> paper_speedup = {
    {"FLO52", {1, 2.86, 4.23, 6.39, 8.40}},
    {"ARC2D", {1, 3.61, 6.25, 10.54, 15.06}},
    {"MDG", {1, 3.89, 7.44, 14.26, 24.43}},
    {"OCEAN", {1, 3.83, 7.16, 11.85, 15.58}},
    {"ADM", {1, 3.40, 5.84, 8.52, 8.84}},
};

/** Paper Table 1: average concurrency. */
inline const std::map<std::string, std::vector<double>> paper_concurrency =
    {
        {"FLO52", {1, 3.49, 6.11, 9.66, 14.82}},
        {"ARC2D", {1, 3.70, 6.82, 12.28, 20.56}},
        {"MDG", {1, 3.92, 7.60, 15.14, 28.82}},
        {"OCEAN", {1, 3.86, 7.53, 12.98, 17.27}},
        {"ADM", {1, 3.46, 6.06, 9.42, 13.56}},
};

/** Paper Table 3: main-task average parallel-loop concurrency. */
inline const std::map<std::string, std::vector<double>>
    paper_par_concurrency_main = {
        {"FLO52", {1, 3.88, 7.28, 7.01, 6.85}},
        {"ARC2D", {1, 3.94, 7.64, 7.63, 7.62}},
        {"MDG", {1, 3.96, 7.79, 7.88, 7.98}},
        {"OCEAN", {1, 3.92, 7.88, 7.42, 5.74}},
        {"ADM", {1, 3.96, 7.93, 7.55, 5.89}},
};

/** Paper Table 4: contention overhead Ov_cont (%). */
inline const std::map<std::string, std::vector<double>> paper_contention =
    {
        {"FLO52", {0, 17, 27, 24, 21}},
        {"ARC2D", {0, 3.4, 8.8, 10.3, 14.1}},
        {"MDG", {0, 1.3, 4.1, 7.2, 13.4}},
        {"OCEAN", {0, 3.5, 6.3, 8.0, 7.4}},
        {"ADM", {0, 1.9, 4.1, 5.9, 12.5}},
};

/** Paper Table 2 (32 proc): OS activity %, keyed by activity name. */
inline const std::map<std::string, std::map<std::string, double>>
    paper_os_detail = {
        {"FLO52",
         {{"cpi", 4.70},
          {"ctx", 2.30},
          {"pg flt (c)", 3.04},
          {"pg flt (s)", 2.25},
          {"Cr Sect (clus)", 1.60},
          {"Cr Sect (glbl)", 0.33},
          {"clus syscall", 0.35},
          {"glbl syscall", 0.05},
          {"ast", 0.04}}},
        {"ARC2D",
         {{"cpi", 3.95},
          {"ctx", 2.04},
          {"pg flt (c)", 2.62},
          {"pg flt (s)", 1.54},
          {"Cr Sect (clus)", 2.77},
          {"Cr Sect (glbl)", 0.83},
          {"clus syscall", 0.59},
          {"glbl syscall", 0.04},
          {"ast", 0.13}}},
        {"MDG",
         {{"cpi", 1.18},
          {"ctx", 1.84},
          {"pg flt (c)", 0.76},
          {"pg flt (s)", 0.23},
          {"Cr Sect (clus)", 1.18},
          {"Cr Sect (glbl)", 0.39},
          {"clus syscall", 0.28},
          {"glbl syscall", 0.01},
          {"ast", 0.02}}},
};

/** All five applications, paper order. */
inline const std::vector<std::string> app_names = {"FLO52", "ARC2D",
                                                   "MDG", "OCEAN", "ADM"};

} // namespace cedar::bench

#endif // CEDAR_BENCH_HARNESS_HH
