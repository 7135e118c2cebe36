"""The quantized moving-average process and its three entropy-rate bounds.

Round a Gaussian MA(1) path to the nearest integer and you get an
integer-valued process whose exact entropy rate nobody knows.  Its lag-0/lag-1
statistics are computable, though, which feeds three different upper bounds:

* H_TH1 - the spectral-density route (needs the full PSD; exact here since
  the covariance vanishes beyond lag 1),
* H_TH3 - the order-1 covariance route (needs only R0, R1),
* H_CE  - the classic conditional-entropy baseline H(Y_{n+1} | Y_n).
"""

import entrobound as eb

sigma = 1.0
print(f"{'theta':>6} {'R0':>10} {'R1':>10} {'K':>8} {'H_TH1':>9} {'H_TH3':>9} {'H_CE':>9}")
for theta in (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
    m = eb.QuantizedMaModel(sigma, theta)
    print(
        f"{theta:>6.2f} {eb.qma_r0(m):>10.5f} {eb.qma_r1(m):>10.5f}"
        f" {eb.qma_k_ratio(m):>8.4f} {eb.qma_th1_bound(m):>9.5f}"
        f" {eb.qma_th3_bound(m):>9.5f} {eb.qma_conditional_entropy(m):>9.5f}"
    )

print()
print("For mid-range theta the spectral bound H_TH1 drops below the")
print("conditional-entropy baseline: second-order statistics beat the")
print("one-step predictor there.  At theta=0 the process is i.i.d. and the")
print("baseline is exact, so it wins.")
print()
m = eb.QuantizedMaModel(1.0, 1.0)
res = eb.tdist_bound_1(eb.qma_r0(m), eb.qma_r1(m))
print(f"order-1 minimizer at sigma=1, theta=1: s* = {res.argmin[0]:+.6f} "
      "(closed form -2*rho/(1 + rho^2), rho = R1 / (R0 + 1/12))")
