// Golden outputs of the binary C/E load-balancing engine.
//
// kGolden freezes the seed-fixed outputs of one small cluster (20
// balancers, 16 servers, seed 42, 200 warm-up + 800 measured steps) over
// every strategy x service policy x batch size x burst setting the engine
// supports. The integer counters and the p95 delay must match exactly;
// the means and throughput to 1e-9 relative (they are ratios of exact
// integer sums, so only the last float rounding may differ). CHSH
// won/lost count the paired rounds played during the measured steps.
//
// The table was generated at commit 03c8e6e, where this file still drove
// the former single-cluster engine (since folded into run_sharded_lb_sim;
// its measured rounds were recovered by replaying the warm-up steps), by
//
//   FTL_LB_GOLDEN_PRINT=1 ./lb_golden_test
//
// which prints the current engine's rows in the frozen format.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "correlate/decision_source.hpp"
#include "lb/sharded_simulator.hpp"
#include "lb/strategy.hpp"

namespace ftl::lb {
namespace {

struct Row {
  const char* key;
  long long arrived;
  long long served;
  long long still_queued;
  long long rounds_won;
  long long rounds_lost;
  double p95_delay;
  double mean_queue_length;
  double mean_delay;
  double mean_delay_c;
  double mean_delay_e;
  double throughput;
};

// clang-format off
constexpr Row kGolden[] = {
    {"random/paper-c-first/b1/steady", 16000, 14195, 1805, 0, 0, 171, 68.215078124999764, 49.260866502289581, 0.048111678923096153, 113.23266364225542, 1.1089843749999999},
    {"random/paper-c-first/b1/burst", 11331, 11254, 77, 0, 0, 26, 4.8242968749999884, 5.2294295361649219, 0.04660126138752628, 10.563649477100583, 0.87921875000000005},
    {"random/paper-c-first/b4/steady", 64000, 23914, 40086, 0, 0, 202, 1802.8124999999955, 126.93330266789371, 126.93330266789371, 0, 1.8682812499999999},
    {"random/paper-c-first/b4/burst", 45268, 22449, 22819, 0, 0, 31, 1065.2742187500003, 11.997193638914874, 11.997193638914874, 0, 1.7538281250000001},
    {"random/fifo-pair/b1/steady", 16000, 15849, 151, 0, 0, 17, 7.1495312499999821, 5.6673607167645441, 5.2932444332620472, 6.0437974683544198, 1.2382031250000001},
    {"random/fifo-pair/b1/burst", 11331, 11270, 61, 0, 0, 8, 2.2646093749999845, 2.5311446317657458, 2.2359353023910087, 2.8319598710139742, 0.88046875000000002},
    {"random/fifo-pair/b4/steady", 64000, 5339, 58661, 0, 0, 724, 2201.0517187500031, 640.39370668664537, 640.98244944677811, 639.82597498160419, 0.417109375},
    {"random/fifo-pair/b4/burst", 45268, 8976, 36292, 0, 0, 617, 1379.3361718750029, 514.7795231729059, 513.44200271862167, 516.07365190705991, 0.70125000000000004},
    {"random/e-first/b1/steady", 16000, 15796, 204, 0, 0, 35, 9.6026562500000132, 7.3827551278804489, 14.056314646916071, 0.82146892655367143, 1.2340625000000001},
    {"random/e-first/b1/burst", 11331, 11261, 70, 0, 0, 14, 2.7887499999999896, 3.0352544179024941, 5.4056587091069828, 0.64413128790581653, 0.879765625},
    {"random/e-first/b4/steady", 64000, 8059, 55941, 0, 0, 585, 2401.9999999999932, 448.31505149522349, 0, 448.31505149522349, 0.62960937500000003},
    {"random/e-first/b4/burst", 45268, 9860, 35408, 0, 0, 423, 1579.1268749999954, 316.14300202839758, 0, 316.14300202839758, 0.77031249999999996},
    {"round-robin/paper-c-first/b1/steady", 16000, 14058, 1942, 0, 0, 172, 72.062187500000064, 51.811281832408675, 0.052854649713288439, 120.59956925116019, 1.0982812500000001},
    {"round-robin/paper-c-first/b1/burst", 11331, 11272, 59, 0, 0, 21, 3.7794531250000007, 4.1175479063165268, 0.040469516468114905, 8.3001437814521921, 0.88062499999999999},
    {"round-robin/paper-c-first/b4/steady", 64000, 23929, 40071, 0, 0, 199, 1802.1250000000036, 126.70316352542935, 126.70316352542935, 0, 1.8694531249999999},
    {"round-robin/paper-c-first/b4/burst", 45268, 22449, 22819, 0, 0, 30, 1063.6109374999987, 11.412535079513598, 11.412535079513598, 0, 1.7538281250000001},
    {"round-robin/fifo-pair/b1/steady", 16000, 15960, 40, 0, 0, 4, 2.2770312500000083, 1.8188596491228002, 1.4996877731984466, 2.1401986671696136, 1.246875},
    {"round-robin/fifo-pair/b1/burst", 11331, 11296, 35, 0, 0, 4, 1.2394531250000049, 1.3944759206798898, 1.1597612359550544, 1.6332142857142857, 0.88249999999999995},
    {"round-robin/fifo-pair/b4/steady", 64000, 5340, 58660, 0, 0, 725, 2200.908359374997, 640.96891385767594, 641.74551697825143, 640.22030158146447, 0.41718749999999999},
    {"round-robin/fifo-pair/b4/burst", 45268, 8988, 36280, 0, 0, 617, 1379.2976562500073, 515.41811303960833, 514.61519386835016, 516.20057117750366, 0.70218749999999996},
    {"round-robin/e-first/b1/steady", 16000, 15977, 23, 0, 0, 6, 1.7607812500000004, 1.3981974087751126, 2.3384557721139343, 0.45428320581964071, 1.2482031250000001},
    {"round-robin/e-first/b1/burst", 11331, 11293, 38, 0, 0, 6, 1.3082031249999939, 1.4662180111573528, 2.4487134296792372, 0.47410571276027896, 0.88226562500000005},
    {"round-robin/e-first/b4/steady", 64000, 8057, 55943, 0, 0, 585, 2401.8749999999982, 448.59550701253698, 0, 448.59550701253698, 0.62945312499999995},
    {"round-robin/e-first/b4/burst", 45268, 9858, 35410, 0, 0, 420, 1579.0018750000074, 316.8965307364582, 0, 316.8965307364582, 0.77015624999999999},
    {"po2/paper-c-first/b1/steady", 16000, 14543, 1457, 0, 0, 129, 54.176171875000357, 40.197139517293358, 0.079416531604537891, 89.535418583256657, 1.1361718750000001},
    {"po2/paper-c-first/b1/burst", 11331, 11278, 53, 0, 0, 16, 2.8483593749999954, 3.1391204114204698, 0.065708778692833258, 6.2875605815831657, 0.88109375000000001},
    {"po2/paper-c-first/b4/steady", 64000, 23919, 40081, 0, 0, 197, 1802.6250000000032, 127.03720891341553, 127.03720891341553, 0, 1.868671875},
    {"po2/paper-c-first/b4/burst", 45268, 22442, 22826, 0, 0, 31, 1061.5311718750042, 11.966357722128155, 11.966357722128155, 0, 1.7532812499999999},
    {"po2/fifo-pair/b1/steady", 16000, 15962, 38, 0, 0, 3, 1.9309374999999971, 1.5425385290063898, 1.2416291854072961, 1.8451872329731076, 1.24703125},
    {"po2/fifo-pair/b1/burst", 11331, 11297, 34, 0, 0, 3, 0.95101562499999703, 1.0694874745507659, 0.8645943097997898, 1.2777083705157914, 0.88257812499999999},
    {"po2/fifo-pair/b4/steady", 64000, 5333, 58667, 0, 0, 724, 2200.9496874999995, 640.89218076129714, 641.31825153374268, 640.48440366972272, 0.41664062499999999},
    {"po2/fifo-pair/b4/burst", 45268, 8987, 36281, 0, 0, 617, 1379.3364062499959, 515.44508734839292, 514.65140924464322, 516.21836555360267, 0.70210937500000004},
    {"po2/e-first/b1/steady", 16000, 15976, 24, 0, 0, 4, 1.5715625000000013, 1.2540686029043602, 1.9708859177808302, 0.53455412015552428, 1.2481249999999999},
    {"po2/e-first/b1/burst", 11331, 11304, 27, 0, 0, 4, 0.82359375000000046, 0.92489384288747611, 1.4118474248549826, 0.43152270703473, 0.88312500000000005},
    {"po2/e-first/b4/steady", 64000, 8057, 55943, 0, 0, 585, 2401.8749999999995, 448.68760084398741, 0, 448.68760084398741, 0.62945312499999995},
    {"po2/e-first/b4/burst", 45268, 9858, 35410, 0, 0, 421, 1579.0018749999981, 316.76790424021164, 0, 316.76790424021164, 0.77015624999999999},
    {"dedicated(0.5)/paper-c-first/b1/steady", 16000, 13988, 2012, 0, 0, 172, 74.22882812499968, 52.86624249356575, 0.2756857855361603, 123.53920911528125, 1.0928125},
    {"dedicated(0.5)/paper-c-first/b1/burst", 11331, 11239, 92, 0, 0, 30, 6.051015624999982, 6.6389358483851035, 0.24539877300613486, 13.230032526201622, 0.878046875},
    {"dedicated(0.5)/paper-c-first/b4/steady", 64000, 8051, 55949, 0, 0, 590, 2101.7499999999982, 455.1407278598935, 450.60672459388059, 782.45454545454561, 0.62898437500000004},
    {"dedicated(0.5)/paper-c-first/b4/burst", 45268, 11680, 33588, 0, 0, 695, 1278.8768749999986, 370.29469178082195, 315.55498981670155, 659.29677419354687, 0.91249999999999998},
    {"dedicated(0.5)/fifo-pair/b1/steady", 16000, 13988, 2012, 0, 0, 172, 74.22882812499968, 52.86624249356575, 0.2756857855361603, 123.53920911528125, 1.0928125},
    {"dedicated(0.5)/fifo-pair/b1/burst", 11331, 11239, 92, 0, 0, 30, 6.051015624999982, 6.6389358483851035, 0.24539877300613486, 13.230032526201622, 0.878046875},
    {"dedicated(0.5)/fifo-pair/b4/steady", 64000, 8051, 55949, 0, 0, 590, 2101.7499999999982, 455.1407278598935, 450.60672459388059, 782.45454545454561, 0.62898437500000004},
    {"dedicated(0.5)/fifo-pair/b4/burst", 45268, 11680, 33588, 0, 0, 695, 1278.8768749999986, 370.29469178082195, 315.55498981670155, 659.29677419354687, 0.91249999999999998},
    {"dedicated(0.5)/e-first/b1/steady", 16000, 13988, 2012, 0, 0, 172, 74.22882812499968, 52.86624249356575, 0.2756857855361603, 123.53920911528125, 1.0928125},
    {"dedicated(0.5)/e-first/b1/burst", 11331, 11239, 92, 0, 0, 30, 6.051015624999982, 6.6389358483851035, 0.24539877300613486, 13.230032526201622, 0.878046875},
    {"dedicated(0.5)/e-first/b4/steady", 64000, 8051, 55949, 0, 0, 590, 2101.7499999999982, 455.1407278598935, 450.60672459388059, 782.45454545454561, 0.62898437500000004},
    {"dedicated(0.5)/e-first/b4/burst", 45268, 11680, 33588, 0, 0, 695, 1278.8768749999986, 370.29469178082195, 315.55498981670155, 659.29677419354687, 0.91249999999999998},
    {"local-batching/paper-c-first/b1/steady", 16000, 14145, 1855, 0, 0, 187, 69.32960937499989, 49.144927536231819, 0.049108812165025648, 113.48595230316879, 1.1050781249999999},
    {"local-batching/paper-c-first/b1/burst", 11331, 11265, 66, 0, 0, 25, 4.7775000000000007, 5.1922769640479407, 0.043622985283812331, 10.480834982904435, 0.88007812500000004},
    {"local-batching/paper-c-first/b4/steady", 64000, 23883, 40117, 0, 0, 209, 1803.6875000000039, 127.31750617594091, 127.31750617594091, 0, 1.8658593750000001},
    {"local-batching/paper-c-first/b4/burst", 45268, 22413, 22855, 0, 0, 36, 1055.0824218750008, 14.143845089903193, 14.143845089903193, 0, 1.751015625},
    {"local-batching/fifo-pair/b1/steady", 16000, 15875, 125, 0, 0, 16, 7.0907031250000099, 5.6161259842519895, 5.2311942735150057, 6.0035389282103155, 1.240234375},
    {"local-batching/fifo-pair/b1/burst", 11331, 11281, 50, 0, 0, 9, 2.2685156250000067, 2.5354135271695735, 2.2848612574640046, 2.7907642742079881, 0.88132812500000002},
    {"local-batching/fifo-pair/b4/steady", 64000, 5342, 58658, 0, 0, 724, 2200.9491406250013, 639.91276675402548, 640.53731911652733, 639.30891016200189, 0.41734375000000001},
    {"local-batching/fifo-pair/b4/burst", 45268, 8985, 36283, 0, 0, 617.79999999999927, 1379.4508593750027, 514.94702281580464, 514.36763710223329, 515.51075977162952, 0.70195312499999996},
    {"local-batching/e-first/b1/steady", 16000, 15842, 158, 0, 0, 35, 9.3212500000000276, 7.1938517863906348, 13.646513400228619, 0.81892332789559508, 1.2376562499999999},
    {"local-batching/e-first/b1/burst", 11331, 11268, 63, 0, 0, 15.649999999999636, 2.8637500000000067, 3.1370252041178572, 5.594800141492752, 0.66173851086569224, 0.88031250000000005},
    {"local-batching/e-first/b4/steady", 64000, 8057, 55943, 0, 0, 585, 2401.8750000000014, 448.36167307930936, 0, 448.36167307930936, 0.62945312499999995},
    {"local-batching/e-first/b4/burst", 45268, 9858, 35410, 0, 0, 429, 1579.0018749999986, 316.32146480016331, 0, 316.32146480016331, 0.77015624999999999},
    {"paired(quantum-chsh,v=1)/paper-c-first/b1/steady", 16000, 14990, 1010, 6829, 1171, 110, 40.285546875000293, 30.349833222148199, 0.12802293692346109, 65.143082663605171, 1.17109375},
    {"paired(quantum-chsh,v=1)/paper-c-first/b1/burst", 11331, 11270, 61, 4276, 664, 20, 3.5725781249999837, 3.8771960958296492, 0.12123335669236179, 7.7317511686443909, 0.88046875000000002},
    {"paired(quantum-chsh,v=1)/fifo-pair/b1/steady", 16000, 15874, 126, 6829, 1171, 13, 6.6489062500000014, 5.2761118810633745, 4.9711091571410755, 5.5829647415645001, 1.2401562500000001},
    {"paired(quantum-chsh,v=1)/fifo-pair/b1/burst", 11331, 11274, 57, 4276, 664, 9, 2.3479687499999926, 2.6180592513748442, 2.4174142480211125, 2.8221506530685292, 0.88078124999999996},
    {"paired(quantum-chsh,v=1)/e-first/b1/steady", 16000, 15825, 175, 6829, 1171, 29, 8.7589062499999635, 6.7323222748815148, 12.757641365257259, 0.79844475103474088, 1.236328125},
    {"paired(quantum-chsh,v=1)/e-first/b1/burst", 11331, 11262, 69, 4276, 664, 16, 2.9417187500000024, 3.2170129639495624, 5.7727835781277719, 0.64302263411156491, 0.87984375000000004},
    {"paired(quantum-chsh,v=0.9)/paper-c-first/b1/steady", 16000, 14964, 1036, 6548, 1452, 111, 40.954609375000224, 30.703020582731963, 0.12615307903266035, 66.036876980697329, 1.1690624999999999},
    {"paired(quantum-chsh,v=0.9)/paper-c-first/b1/burst", 11331, 11270, 61, 4103, 837, 21, 3.6732031250000099, 3.9912156166814627, 0.12000700770847922, 7.9640417116145068, 0.88046875000000002},
    {"paired(quantum-chsh,v=0.9)/fifo-pair/b1/steady", 16000, 15873, 127, 6548, 1452, 14, 7.1945312500000131, 5.7056007056006512, 5.3949020592667019, 6.0184599822986149, 1.2400781249999999},
    {"paired(quantum-chsh,v=0.9)/fifo-pair/b1/burst", 11331, 11273, 58, 4103, 837, 9, 2.3953125000000037, 2.6708063514592357, 2.4684145697694859, 2.8765652951699527, 0.88070312500000003},
    {"paired(quantum-chsh,v=0.9)/e-first/b1/steady", 16000, 15825, 175, 6548, 1452, 32, 9.4800000000000235, 7.2767772511848188, 13.823993886907809, 0.82892261382164811, 1.236328125},
    {"paired(quantum-chsh,v=0.9)/e-first/b1/burst", 11331, 11261, 70, 4103, 837, 17, 3.0221093749999861, 3.3123168457508285, 5.9366483808175516, 0.66880570409982409, 0.879765625},
    {"paired(classical-chsh)/paper-c-first/b1/steady", 16000, 14106, 1894, 5975, 2025, 177, 71.14140624999979, 50.943570112008935, 0.045494204163031224, 118.0741410488244, 1.10203125},
    {"paired(classical-chsh)/paper-c-first/b1/burst", 11331, 11254, 77, 3660, 1280, 23, 4.5736718750000103, 4.9278478763106275, 0.039593552908199103, 9.9588892895780798, 0.87921875000000005},
    {"paired(classical-chsh)/fifo-pair/b1/steady", 16000, 15875, 125, 5975, 2025, 15, 6.3463281250000039, 5.0372913385826585, 4.5730238393977318, 5.505376344086037, 1.240234375},
    {"paired(classical-chsh)/fifo-pair/b1/burst", 11331, 11279, 52, 3660, 1280, 8, 2.1480468749999839, 2.3895735437538823, 2.1038001407459519, 2.6798927613940955, 0.88117187500000005},
    {"paired(classical-chsh)/e-first/b1/steady", 16000, 15834, 166, 5975, 2025, 28, 8.0241406250000136, 6.1588985726916787, 11.626144455747696, 0.7643663739021328, 1.23703125},
    {"paired(classical-chsh)/e-first/b1/burst", 11331, 11269, 62, 3660, 1280, 14, 2.6546875000000072, 2.8423107640429479, 5.0987086502741858, 0.57104700854700752, 0.88039062499999998},
    {"paired(omniscient)/paper-c-first/b1/steady", 16000, 15144, 856, 8000, 0, 96.849999999998545, 33.703437500000042, 25.455163761225606, 0.15407629020194483, 53.953524290929522, 1.183125},
    {"paired(omniscient)/paper-c-first/b1/burst", 11331, 11269, 62, 4940, 0, 17, 3.1177343750000026, 3.3994143224776021, 0.1256131744919409, 6.7597554396691297, 0.88039062499999998},
    {"paired(omniscient)/fifo-pair/b1/steady", 16000, 15865, 135, 8000, 0, 19, 7.789218750000015, 6.190671289000921, 5.9225458197338705, 6.461071021648304, 1.239453125},
    {"paired(omniscient)/fifo-pair/b1/burst", 11331, 11273, 58, 4940, 0, 9, 2.3060937500000085, 2.5679056151867221, 2.3612676056338073, 2.7777579116753084, 0.88070312500000003},
    {"paired(omniscient)/e-first/b1/steady", 16000, 15813, 187, 8000, 0, 36, 10.375859374999969, 8.0011383039271902, 15.35509371413999, 0.7643663739021328, 1.235390625},
    {"paired(omniscient)/e-first/b1/burst", 11331, 11259, 72, 4940, 0, 15, 2.8996875000000166, 3.1150190958344455, 5.646819067871701, 0.57104700854700752, 0.87960937500000003},
    {"paired(independent)/paper-c-first/b1/steady", 16000, 14585, 1415, 4017, 3983, 141.79999999999927, 55.111796875000159, 39.805690778196833, 0.099601096983295626, 88.338717050129006, 1.139453125},
    {"paired(independent)/paper-c-first/b1/burst", 11331, 11255, 76, 2464, 2476, 28, 5.1519531250000004, 5.6004442470013522, 0.08339173090399446, 11.277627546421526, 0.87929687499999998},
    {"paired(independent)/fifo-pair/b1/steady", 16000, 15798, 202, 4017, 3983, 25, 10.027734375000097, 7.9022661096341311, 7.491239127694433, 8.3168467895740736, 1.2342187499999999},
    {"paired(independent)/fifo-pair/b1/burst", 11331, 11264, 67, 2464, 2476, 11, 3.0318749999999897, 3.3762428977272871, 3.0072170392536512, 3.7517463729177907, 0.88},
    {"paired(independent)/e-first/b1/steady", 16000, 15709, 291, 4017, 3983, 48.599999999998545, 13.607499999999959, 10.069768922273818, 19.308576595195049, 1.0918790008786239, 1.227265625},
    {"paired(independent)/e-first/b1/burst", 11331, 11245, 86, 2464, 2476, 21, 4.0198437499999873, 4.2771898621609719, 7.6448349307774208, 0.8957405097130644, 0.87851562500000002},
    {"paired(mixed,p_same=0.25)/paper-c-first/b1/steady", 16000, 14343, 1657, 4915, 3085, 162, 62.404296875000298, 44.663529247716731, 0.073040009971332434, 101.26946202531626, 1.1205468750000001},
    {"paired(mixed,p_same=0.25)/paper-c-first/b1/burst", 11331, 11257, 74, 3075, 1865, 27, 4.9860156249999514, 5.3878475615172654, 0.071315927807955287, 10.854774774774786, 0.87945312499999995},
    {"paired(mixed,p_same=0.25)/fifo-pair/b1/steady", 16000, 15839, 161, 4915, 3085, 20, 8.4720312499999171, 6.7151966664562366, 6.3251981381305811, 7.1081115335868272, 1.2374218749999999},
    {"paired(mixed,p_same=0.25)/fifo-pair/b1/burst", 11331, 11266, 65, 3075, 1865, 11, 2.6567187499999858, 2.965915142907861, 2.6849146277063931, 3.2517457475380578, 0.88015624999999997},
    {"paired(mixed,p_same=0.25)/e-first/b1/steady", 16000, 15775, 225, 4915, 3085, 42, 11.717187500000055, 8.8233280507131404, 16.937235814013146, 0.87336847389558159, 1.232421875},
    {"paired(mixed,p_same=0.25)/e-first/b1/burst", 11331, 11244, 87, 3075, 1865, 18, 3.4512499999999933, 3.7427961579508828, 6.7148943724480841, 0.7590447335590812, 0.87843749999999998},
};
// clang-format on

constexpr const char* kStrategies[] = {
    "random",        "round-robin",
    "po2",           "dedicated(0.5)",
    "local-batching", "paired(quantum-chsh,v=1)",
    "paired(quantum-chsh,v=0.9)", "paired(classical-chsh)",
    "paired(omniscient)",        "paired(independent)",
    "paired(mixed,p_same=0.25)",
};

struct Case {
  std::string strategy;
  ServicePolicy policy;
  std::size_t batch;
  bool burst;

  [[nodiscard]] std::string key() const {
    return strategy + "/" + to_string(policy) + "/b" + std::to_string(batch) +
           (burst ? "/burst" : "/steady");
  }
};

std::vector<Case> grid() {
  std::vector<Case> cases;
  for (const char* s : kStrategies) {
    const bool paired = std::string(s).rfind("paired", 0) == 0;
    for (ServicePolicy p : {ServicePolicy::kPaperCFirst,
                            ServicePolicy::kFifoPair, ServicePolicy::kEFirst}) {
      for (std::size_t batch : {1u, 4u}) {
        if (paired && batch != 1) continue;
        for (bool burst : {false, true}) cases.push_back({s, p, batch, burst});
      }
    }
  }
  return cases;
}

std::unique_ptr<correlate::PairedDecisionSource> make_paired_source(
    const std::string& name) {
  if (name == "paired(quantum-chsh,v=1)") {
    return std::make_unique<correlate::ChshSource>(1.0);
  }
  if (name == "paired(quantum-chsh,v=0.9)") {
    return std::make_unique<correlate::ChshSource>(0.9);
  }
  if (name == "paired(classical-chsh)") {
    return correlate::make_source("classical-chsh");
  }
  if (name == "paired(omniscient)") return correlate::make_source("omniscient");
  if (name == "paired(independent)") {
    return correlate::make_source("independent");
  }
  return std::make_unique<correlate::MixedClassicalSource>(0.25);
}

std::unique_ptr<LbStrategy> make_strategy(const std::string& name) {
  if (name == "random") return std::make_unique<RandomStrategy>();
  if (name == "round-robin") return std::make_unique<RoundRobinStrategy>();
  if (name == "po2") return std::make_unique<PowerOfTwoStrategy>();
  if (name == "dedicated(0.5)") {
    return std::make_unique<DedicatedServersStrategy>(0.5);
  }
  if (name == "local-batching") {
    return std::make_unique<LocalBatchingStrategy>();
  }
  return std::make_unique<PairedStrategy>(make_paired_source(name));
}

ShardedLbConfig config(const Case& c) {
  ShardedLbConfig cfg;
  cfg.num_balancers = 20;
  cfg.num_servers = 16;
  cfg.batch_size = c.batch;
  if (c.burst) cfg.burst = BurstModel{};
  cfg.policy = c.policy;
  cfg.warmup_steps = 200;
  cfg.measure_steps = 800;
  cfg.seed = 42;
  return cfg;
}

Row run_case(const Case& c) {
  const ShardedLbResult r = run_sharded_lb_sim(
      config(c), nullptr, [&c] { return make_strategy(c.strategy); });
  return Row{nullptr,
             r.counters.arrived,
             r.counters.served,
             r.counters.still_queued,
             r.counters.rounds_won,
             r.counters.rounds_lost,
             r.p95_delay,
             r.mean_queue_length,
             r.mean_delay,
             r.mean_delay_c,
             r.mean_delay_e,
             r.throughput};
}

void expect_rel(double got, double want, const char* what,
                const std::string& key) {
  EXPECT_NEAR(got, want, 1e-9 * std::max(1.0, std::abs(want)))
      << key << " " << what;
}

TEST(LbGolden, EngineReproducesFrozenOutputs) {
  const std::vector<Case> cases = grid();
  if (std::getenv("FTL_LB_GOLDEN_PRINT") != nullptr) {
    for (const Case& c : cases) {
      const Row r = run_case(c);
      std::printf(
          "    {\"%s\", %lld, %lld, %lld, %lld, %lld, %.17g, %.17g, %.17g, "
          "%.17g, %.17g, %.17g},\n",
          c.key().c_str(), r.arrived, r.served, r.still_queued, r.rounds_won,
          r.rounds_lost, r.p95_delay, r.mean_queue_length, r.mean_delay,
          r.mean_delay_c, r.mean_delay_e, r.throughput);
    }
  }
  ASSERT_EQ(std::size(kGolden), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Case& c = cases[i];
    const Row& want = kGolden[i];
    const std::string key = c.key();
    ASSERT_EQ(key, want.key);
    const Row got = run_case(c);
    EXPECT_EQ(got.arrived, want.arrived) << key;
    EXPECT_EQ(got.served, want.served) << key;
    EXPECT_EQ(got.still_queued, want.still_queued) << key;
    EXPECT_EQ(got.rounds_won, want.rounds_won) << key;
    EXPECT_EQ(got.rounds_lost, want.rounds_lost) << key;
    EXPECT_EQ(got.p95_delay, want.p95_delay) << key;
    expect_rel(got.mean_queue_length, want.mean_queue_length, "mean queue",
               key);
    expect_rel(got.mean_delay, want.mean_delay, "mean delay", key);
    expect_rel(got.mean_delay_c, want.mean_delay_c, "mean delay C", key);
    expect_rel(got.mean_delay_e, want.mean_delay_e, "mean delay E", key);
    expect_rel(got.throughput, want.throughput, "throughput", key);
  }
}

}  // namespace
}  // namespace ftl::lb
