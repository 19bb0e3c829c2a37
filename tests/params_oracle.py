"""A parameter-equality oracle for tests.

``params_digest`` hashes what a model computes with (every tensor's values
by name, the feature normalization statistics and the class labels), so two
models compare equal however they were stored or loaded. The package names
a model by the sha256 of its ``.emom`` file instead.
"""

import hashlib

import numpy as np


def params_digest(params) -> str:
    h = hashlib.sha256()
    for name in sorted(params.tensors):
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(params.tensors[name].data).tobytes())
    for arr in (params.feat_mean, params.feat_std):
        if arr is not None:
            h.update(np.ascontiguousarray(arr).tobytes())
    h.update(",".join(params.emotions).encode("utf-8"))
    return h.hexdigest()
