"""Building ensembles from single policies, for tests that set members by hand."""

from swarmbc import nn
from swarmbc.ensemble import Ensemble


def ensemble_of(members, **fields) -> Ensemble:
    """An Ensemble holding copies of ``members``' parameters (all of one
    ``layer_dims``); ``fields`` are the other Ensemble fields."""
    layer_dims = list(members[0].layer_dims)
    params, weights, biases = nn.stacked_buffer(layer_dims, len(members))
    for i, m in enumerate(members):
        for w, b, mw, mb in zip(weights, biases, m.weights, m.biases):
            w[i], b[i] = mw, mb
    return Ensemble(layer_dims=layer_dims, params=params, **fields)
