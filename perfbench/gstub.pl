#!/usr/bin/perl
# Stand-in external solver for the benchmark: the G-function of the
# parameters taken in a permuted axis order.
#
# Usage: gstub.pl <params.txt> <sample-dir> <perm> <launch-log>
#
# <perm> is a comma-separated axis order p; the output is
# u(y) = prod_m (|4 y_{p_m} - 2| + a_m) / (1 + a_m), a_m = (m - 2)/2,
# written to <sample-dir>/qoi.bin as a little-endian u64 count (1) and
# one little-endian f64.  One line per launch is appended to the log.
#
# It loads no modules, not even strict and warnings, which halves its
# start-up time.

($params, $dir, $perm, $log) = @ARGV;
die "usage: gstub.pl <params.txt> <sample-dir> <perm> <launch-log>\n" unless defined $log;
open($in, '<', $params) or die "$params: $!\n";
@y = split ' ', scalar(<$in>);
close $in;
@p = split /,/, $perm;
die "perm has " . scalar(@p) . " axes, params have " . scalar(@y) . "\n" unless @p == @y;
$u = 1.0;
for $m (0 .. $#y) {
    $a = ($m - 1) / 2;
    $u *= (abs(4 * $y[$p[$m]] - 2) + $a) / (1 + $a);
}
open($out, '>:raw', "$dir/qoi.bin") or die "$dir/qoi.bin: $!\n";
print $out pack('Q<d<', 1, $u);
close $out or die "$dir/qoi.bin: $!\n";
open($lg, '>>', $log) or die "$log: $!\n";
print $lg "$dir\n";
close $lg or die "$log: $!\n";
