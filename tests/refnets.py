"""Hand-assembled skip/residual reference networks for gate-degeneracy checks.

These rebuild the generator wiring explicitly from the same parameter dict,
with the junctions replaced by the plain skip (pass the active input) or
residual (sum both inputs) forms, never calling the gated combiner code.
`force_gates` makes the real gated generator degenerate to them through its
parameters alone.
"""

import numpy as np

from sgen.autodiff import Tensor, add, conv2d, deconv2d, lrelu, relu, tanh

# with a zero gate kernel, the bias for which the float64 sigmoid returns
# exactly this gate value
FORCING_BIAS = {1.0: 1000.0, 0.0: -1000.0, 0.5: 0.0}


def gate_params(path, c, ga, gp):
    """Zero-kernel gate convolutions for one c-channel SGU at `path` whose
    sigmoid outputs are the constants ga and gp (keys of FORCING_BIAS)."""
    out = {}
    for gate, value in (("ga", ga), ("gp", gp)):
        out[f"{path}.{gate}.w"] = Tensor(np.zeros((c, c, 3, 3)))
        out[f"{path}.{gate}.b"] = Tensor(np.full((1, c, 1, 1), FORCING_BIAS[value]))
    return out


def force_gates(params, cfg, enc, dec):
    """Copy of `params` whose encoder SGUs output the gate pair enc = (ga, gp)
    and whose decoder SGUs output dec = (ga, gp) at every position."""
    forced = dict(params)
    for stage, pair in (("enc", enc), ("dec", dec)):
        for k in range(2, cfg.levels + 1):
            path = f"gen.{stage}.sgu{k}"
            forced.update(gate_params(path, params[path + ".ga.b"].shape[1], *pair))
    return forced


def reference_forward(s, params, cfg, mode):
    """Forward pass of the degenerate network; mode is "skip" or "residual".

    skip:     encoder junctions pass the active input through unchanged.
    residual: encoder junctions sum active and passive inputs.
    Decoder junctions sum their inputs in both modes.
    """
    assert mode in ("skip", "residual")
    n = cfg.levels
    al = cfg.lrelu_alpha

    def p(name):
        return params["gen." + name]

    t = lrelu(conv2d(s, p("enc.stem1.w"), p("enc.stem1.b"), 1, 1), al)
    x = [lrelu(conv2d(t, p("enc.stem2.w"), p("enc.stem2.b"), 2, 1), al)]
    for k in range(2, n + 1):
        x.append(lrelu(conv2d(x[-1], p(f"enc.trunk{k}.w"), p(f"enc.trunk{k}.b"), 2, 1), al))

    base = []
    for k in range(1, n + 1):
        j = n - k + 1
        base.append(lrelu(conv2d(x[k - 1], p(f"enc.base{k}.w"), p(f"enc.base{k}.b"),
                                 2 ** j, j), al))

    combined = [base[0]]
    for k in range(2, n + 1):
        if mode == "skip":
            combined.append(base[k - 1])
        else:
            combined.append(add(base[k - 1], combined[-1]))

    dec = []
    for k in range(1, n + 1):
        src = combined[n - k]
        dec.append(relu(deconv2d(src, p(f"dec.base{k}.w"), p(f"dec.base{k}.b"),
                                 factor=2 ** k)))

    y = relu(deconv2d(dec[0], p("dec.merge1.w"), p("dec.merge1.b"), factor=2))
    for k in range(2, n + 1):
        y = relu(deconv2d(add(dec[k - 1], y), p(f"dec.merge{k}.w"), p(f"dec.merge{k}.b"),
                          factor=2))
    return tanh(conv2d(y, p("out.conv.w"), p("out.conv.b"), 1, 1))
