"""Mixed-precision post-training quantization toolkit.

Calibrates per-tensor quantizer scales, ranks tensors by sensitivity,
searches per-tensor bit widths against an accuracy target, and prices
the result in bytes and table-driven kernel latency. The library surface
lives in the submodules: ``mixquant.modelio``, ``mixquant.graph``,
``mixquant.quantize``, ``mixquant.sensitivity``, ``mixquant.search``,
``mixquant.cost`` and ``mixquant.pipeline``.
"""

__version__ = "0.1.0"
