# resolve.awk — the one rule by which scripts/paired.sh and scripts/claims.sh
# call a difference between two builds resolved. It defines functions only;
# each script loads it with awk -f before its own program.
#
# The rule: a head sample differs from a base sample run in the same pairs
# (rounds) when
#   - the head reads on the same side of the base in at least 9 of 10 of
#     the pairs both ran (every pair, below 10), and
#   - the medians are further apart than the base's interquartile range.
# Fewer than 4 pairs have no quartiles, and resolve nothing.

# sortv sorts a[0..n-1] ascending in place: samples are a few dozen values.
function sortv(a, n,    i, k, v) {
	for (i = 1; i < n; i++) {
		v = a[i]
		for (k = i; k > 0 && a[k - 1] > v; k--) a[k] = a[k - 1]
		a[k] = v
	}
}

# quartile is the nearest-rank f-quantile of a sorted a[0..n-1].
function quartile(a, n, f) { return a[int(f * (n - 1) + 0.5)] }

# median is the median of a sorted a[0..n-1].
function median(a, n) { return n % 2 ? a[(n - 1) / 2] : (a[n / 2 - 1] + a[n / 2]) / 2 }

# resolved applies the rule: bm and hm are the base and head medians, biqr
# the base's interquartile range, and lower and higher the pairs (of n)
# in which the head read below and above the base.
function resolved(bm, hm, biqr, n, lower, higher) {
	if (n < 4) return 0
	if (bm - hm > biqr) return lower >= 0.9 * n
	if (hm - bm > biqr) return higher >= 0.9 * n
	return 0
}
